#include "base/hash.h"

#include <gtest/gtest.h>

namespace planorder {
namespace {

// The published FNV-1a 64-bit test vectors. Canonical-query hashes (and with
// them shard routing), the runtime's batch-hash draws and plan-store
// checksums are all pinned to these values.
TEST(Fnv1a64Test, MatchesKnownVectors) {
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64Test, HashesEveryByteIncludingHighAndZeroBytes) {
  EXPECT_NE(Fnv1a64(std::string_view("\0", 1)), Fnv1a64(""));
  EXPECT_NE(Fnv1a64("\xff"), Fnv1a64("\x7f"));
}

}  // namespace
}  // namespace planorder
