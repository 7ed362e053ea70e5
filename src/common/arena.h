// Reusable scratch-buffer pool for per-day pipeline passes.
//
// The day loop allocates the same working vectors every day — per-client
// outputs, join key columns, group-by key tables — then frees them at day's
// end, so the allocator does the same work over and over. A ScratchArena
// keeps those vectors alive between passes: buffer<T>(id) hands back the
// same vector each day, cleared but with its capacity intact, so after a
// warm-up day the hot path allocates (almost) nothing.
//
// The arena is a pure cache: it never owns results, only scratch. Copying
// an object that holds one therefore copies no cached capacity — the copy
// starts cold and re-warms on first use.
//
// Aliasing guard. A slot handed out twice is two passes scribbling over
// one vector — exactly the failure mode the cross-day pipeline would hit
// if two overlapping days shared an arena. Passes that hold a slot across
// a scope therefore take it as a lease<T>(id): the slot is flagged
// in-use until the ArenaLease drops, and every acquisition (leased or
// plain) of an in-use slot fails an ACDN_DCHECK instead of silently
// aliasing. The arena stays single-threaded; the lease flag is a
// programming-contract check, not a synchronization primitive — the
// pipeline gives every in-flight day its own arena.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <typeindex>
#include <utility>
#include <vector>

#include "common/check.h"

namespace acdn {

/// RAII slot lease: holds the keyed vector exclusively until destruction
/// (ScratchArena::lease / lease_raw). Movable, not copyable.
template <typename T>
class ArenaLease {
 public:
  ArenaLease(ArenaLease&& other) noexcept
      : v_(other.v_), in_use_(other.in_use_) {
    other.v_ = nullptr;
    other.in_use_ = nullptr;
  }
  ArenaLease& operator=(ArenaLease&& other) noexcept {
    if (this != &other) {
      release();
      v_ = other.v_;
      in_use_ = other.in_use_;
      other.v_ = nullptr;
      other.in_use_ = nullptr;
    }
    return *this;
  }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;
  ~ArenaLease() { release(); }

  [[nodiscard]] std::vector<T>& operator*() const { return *v_; }
  [[nodiscard]] std::vector<T>* operator->() const { return v_; }
  [[nodiscard]] std::vector<T>& get() const { return *v_; }

 private:
  friend class ScratchArena;
  ArenaLease(std::vector<T>* v, bool* in_use) : v_(v), in_use_(in_use) {}
  void release() {
    if (in_use_ != nullptr) *in_use_ = false;
    in_use_ = nullptr;
    v_ = nullptr;
  }

  std::vector<T>* v_ = nullptr;
  bool* in_use_ = nullptr;
};

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) {}
  ScratchArena& operator=(const ScratchArena&) {
    slots_.clear();
    return *this;
  }
  ScratchArena(ScratchArena&&) noexcept = default;
  ScratchArena& operator=(ScratchArena&&) noexcept = default;

  /// The persistent vector<T> keyed by (T, id), cleared (size 0) with its
  /// capacity retained from prior uses. Fails an ACDN_DCHECK when the
  /// slot is currently leased.
  template <typename T>
  [[nodiscard]] std::vector<T>& buffer(std::string_view id) {
    std::vector<T>& v = raw_buffer<T>(id);
    v.clear();
    return v;
  }

  /// Same vector, but *not* cleared. For element-wise in-place reuse where
  /// clear() would destroy nested state — e.g. a vector of row structs
  /// whose member vectors must keep their own capacity; the caller resizes
  /// and resets elements in place instead.
  template <typename T>
  [[nodiscard]] std::vector<T>& raw_buffer(std::string_view id) {
    Slot<T>& slot = slot_for<T>(id);
    ACDN_DCHECK(!slot.in_use)
        << "arena slot \"" << std::string(id) << "\" acquired while leased";
    return slot.v;
  }

  /// Exclusive cleared slot: like buffer(), but the slot stays flagged
  /// in-use until the returned lease drops, and any re-acquisition in
  /// between fails an ACDN_DCHECK. Passes that hold arena scratch across
  /// a scope (the join, the day driver) take this form so a concurrently
  /// scheduled pass can never silently alias the same vector.
  template <typename T>
  [[nodiscard]] ArenaLease<T> lease(std::string_view id) {
    ArenaLease<T> out = lease_raw<T>(id);
    out->clear();
    return out;
  }

  /// Exclusive slot without the clear (raw_buffer's in-place-reuse
  /// semantics, lease-guarded).
  template <typename T>
  [[nodiscard]] ArenaLease<T> lease_raw(std::string_view id) {
    Slot<T>& slot = slot_for<T>(id);
    ACDN_DCHECK(!slot.in_use)
        << "arena slot \"" << std::string(id) << "\" leased twice";
    slot.in_use = true;
    return ArenaLease<T>(&slot.v, &slot.in_use);
  }

  [[nodiscard]] std::size_t buffer_count() const { return slots_.size(); }

  /// Total reserved bytes across all buffers, shallow: nested containers
  /// inside elements are not counted. Stable capacity here after warm-up
  /// is the arena-reuse regression signal.
  [[nodiscard]] std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const auto& [key, slot] : slots_) total += slot->capacity_bytes();
    return total;
  }

  /// Drops every buffer (memory pressure valve; next pass re-warms).
  /// Must not be called while any slot is leased.
  void release() {
#if ACDN_DCHECK_ENABLED
    for (const auto& [key, slot] : slots_) {
      ACDN_DCHECK(!slot->in_use) << "arena released while a slot is leased";
    }
#endif
    slots_.clear();
  }

 private:
  struct SlotBase {
    virtual ~SlotBase() = default;
    [[nodiscard]] virtual std::size_t capacity_bytes() const = 0;
    /// Lease flag lives in the base so release() can audit without
    /// knowing element types. Slot addresses are stable (unique_ptr in
    /// the map), which is what lets ArenaLease hold plain pointers.
    bool in_use = false;
  };
  template <typename T>
  struct Slot final : SlotBase {
    std::vector<T> v;
    [[nodiscard]] std::size_t capacity_bytes() const override {
      return v.capacity() * sizeof(T);
    }
  };

  template <typename T>
  [[nodiscard]] Slot<T>& slot_for(std::string_view id) {
    const SlotKey key{std::type_index(typeid(T)), std::string(id)};
    auto it = slots_.find(key);
    if (it == slots_.end()) {
      it = slots_.emplace(key, std::make_unique<Slot<T>>()).first;
    }
    return *static_cast<Slot<T>*>(it->second.get());
  }

  using SlotKey = std::pair<std::type_index, std::string>;
  std::map<SlotKey, std::unique_ptr<SlotBase>> slots_;
};

}  // namespace acdn
