#ifndef PLANORDER_BASE_HASH_H_
#define PLANORDER_BASE_HASH_H_

#include <cstdint>
#include <string_view>

namespace planorder {

/// 64-bit FNV-1a over the bytes of `s`. The one string hash of the library:
/// canonical-query hashes (and with them shard routing), the runtime's
/// per-source seeds and batch-hash draws, and plan-store checksums all go
/// through it, so its output is part of every persisted and replayed result
/// and must never change.
inline uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace planorder

#endif  // PLANORDER_BASE_HASH_H_
