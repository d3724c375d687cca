#pragma once

#include <atomic>
#include <cstddef>

// Zero-overhead sanitizer hooks (DESIGN.md §14).
//
// Built with -DAPV_SANITIZE=address|thread (see the top-level CMakeLists),
// the compiler defines __SANITIZE_ADDRESS__/__SANITIZE_THREAD__ (GCC) or
// answers __has_feature (Clang), and the macros below expand to the real
// sanitizer interface calls:
//
//  - ASan: manual shadow poisoning for memory the runtime recycles *without
//    going through malloc/free* — pooled comm::Payload chunks and freed
//    isomalloc slot-heap blocks ("quarantine-on-release, unpoison-on-
//    acquire"), plus the fiber-switch annotations that teach ASan about ULT
//    stack switches so its stack bookkeeping follows the runtime's
//    hand-rolled context switch instead of misreading it as a wild jump.
//  - TSan: fiber create/switch/destroy annotations, so each ULT gets its
//    own vector clock and a rank resuming on a different PE thread after a
//    migration is not reported as a cross-thread race against itself.
//
// In a plain build every macro expands to nothing (statement macros to
// `((void)0)`), verified by bench/check_overhead staying within noise: no
// function calls, no branches, no fields are added anywhere.

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define APV_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define APV_TSAN 1
#endif
#endif
#if !defined(APV_ASAN) && defined(__SANITIZE_ADDRESS__)
#define APV_ASAN 1
#endif
#if !defined(APV_TSAN) && defined(__SANITIZE_THREAD__)
#define APV_TSAN 1
#endif
#ifndef APV_ASAN
#define APV_ASAN 0
#endif
#ifndef APV_TSAN
#define APV_TSAN 0
#endif

/// Either sanitizer that needs fiber awareness in the context-switch layer.
#define APV_SANITIZER_FIBERS (APV_ASAN || APV_TSAN)

#if APV_ASAN
#include <sanitizer/asan_interface.h>
#define APV_ASAN_POISON(addr, size) \
  __asan_poison_memory_region((addr), (size))
#define APV_ASAN_UNPOISON(addr, size) \
  __asan_unpoison_memory_region((addr), (size))
#else
#define APV_ASAN_POISON(addr, size) ((void)0)
#define APV_ASAN_UNPOISON(addr, size) ((void)0)
#endif

#if APV_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// Annotation for functions that must not be ASan-instrumented: raw byte
// copies that intentionally read or write through poisoned shadow (packing
// a slot image that contains quarantined free blocks, unpacking over them).
#if APV_ASAN
#define APV_NO_SANITIZE_ADDRESS __attribute__((no_sanitize_address))
#else
#define APV_NO_SANITIZE_ADDRESS
#endif

namespace apv::util {

/// memcpy that bypasses ASan shadow checks on both source and destination.
/// Used only by the isomalloc pack/unpack paths, which move whole slot
/// prefixes that legitimately contain poisoned (freed) heap blocks; the
/// shadow state is reconciled by the caller afterwards (SlotHeap::
/// asan_reconcile). In non-ASan builds this is plain memcpy.
APV_NO_SANITIZE_ADDRESS inline void raw_memcpy(void* dst, const void* src,
                                               std::size_t n) noexcept {
#if APV_ASAN
  // Byte loop: the memcpy interceptor would check shadow; a plain loop in a
  // no_sanitize_address function does not. `volatile` stops GCC's loop-idiom
  // recognition from turning the loop right back into an intercepted memcpy
  // call. Pack/unpack are not hot paths (migration/checkpoint only) and
  // sanitizer builds are test builds.
  volatile auto* d = static_cast<unsigned char*>(dst);
  const auto* s = static_cast<const unsigned char*>(src);
  for (std::size_t i = 0; i < n; ++i) d[i] = s[i];
#else
  __builtin_memcpy(dst, src, n);
#endif
}

/// memset equivalent of raw_memcpy (poison-window fills during unpack).
APV_NO_SANITIZE_ADDRESS inline void raw_memset(void* dst, int value,
                                               std::size_t n) noexcept {
#if APV_ASAN
  volatile auto* d = static_cast<unsigned char*>(dst);
  for (std::size_t i = 0; i < n; ++i) d[i] = static_cast<unsigned char>(value);
#else
  __builtin_memset(dst, value, n);
#endif
}

/// A seq_cst fence, for Dekker-style handshakes (Scheduler::idle_wait vs
/// wake). TSan does not model standalone fences (GCC warns, -Wtsan), so
/// under TSan both sides instead do a seq_cst RMW on one shared cell: the
/// later RMW reads from the earlier, which orders the two sides just as
/// the fences do, and TSan sees that order. In other builds it is the
/// plain fence.
inline void seq_cst_fence() noexcept {
#if APV_TSAN
  static std::atomic<int> cell{0};
  cell.fetch_add(0, std::memory_order_seq_cst);
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace apv::util
