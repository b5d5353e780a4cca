#ifndef LAMBADA_ENGINE_HEAD_TABLE_H_
#define LAMBADA_ENGINE_HEAD_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace lambada::engine {

/// Chain heads of a hash join's build side, keyed by the 64-bit row hash
/// (engine::HashRow): an open-addressing table with linear probing in one
/// flat allocation. The table stores one build row per distinct hash; the
/// join links the other rows with that hash through its own `next` array,
/// and tells distinct keys with equal hashes apart by comparing them.
class HeadTable {
 public:
  static constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

  /// Sized for `rows` distinct hashes at most half full, so an empty slot
  /// always ends a probe.
  explicit HeadTable(size_t rows) {
    int bits = 4;
    while ((size_t{1} << bits) < 2 * rows) ++bits;
    shift_ = 64 - bits;
    mask_ = (size_t{1} << bits) - 1;
    slots_.assign(mask_ + 1, Slot{0, kNoRow});
  }

  /// The chain head for `hash`; kNoRow in a fresh slot claimed for it.
  uint32_t& Head(uint64_t hash) {
    size_t i = HomeSlot(hash);
    while (slots_[i].head != kNoRow && slots_[i].hash != hash) {
      i = (i + 1) & mask_;
    }
    slots_[i].hash = hash;
    return slots_[i].head;
  }

  /// The chain head for `hash`, or kNoRow when no row has it.
  uint32_t Find(uint64_t hash) const {
    for (size_t i = HomeSlot(hash);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.head == kNoRow || slot.hash == hash) return slot.head;
    }
  }

  size_t capacity() const { return slots_.size(); }

  /// Where a probe for `hash` starts. Fibonacci hashing on the top bits:
  /// exchange partitions group rows by hash % partitions, so the rows of
  /// one worker's partition can all share their low bits.
  size_t HomeSlot(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

 private:
  struct Slot {
    uint64_t hash;
    uint32_t head;  // kNoRow: empty.
  };

  std::vector<Slot> slots_;
  size_t mask_;
  int shift_;
};

}  // namespace lambada::engine

#endif  // LAMBADA_ENGINE_HEAD_TABLE_H_
