// Pinned golden digests for the engine's deterministic hot path
// (docs/SCALING.md "Pinned golden digests").
//
// Each constant is an FNV-1a digest of a deterministic observation: table dumps,
// sorted ruleExec rows and counter lines of the hot-path workloads, the fleet
// digest of a faulty simfuzz schedule, and the verdicts and re-encodings of the
// wire-decode corpus. They were recorded while the engine still carried a second
// implementation of tuple allocation, delta delivery and wire decoding, and every
// pair of implementations agreed on them; the tests now check "unchanged" against
// these values instead of "equal to a slower twin".
//
// A golden may move only with an intended change to what the engine computes.
// To regenerate one, run the failing test: GoldenMatches reports the observed
// value as `golden <name> = 0x...`, ready to paste below. The values assume the
// x86-64 libstdc++ toolchain the project builds with (std::hash and the standard
// distributions feed some of the workloads).

#ifndef TESTS_GOLDEN_DIGESTS_H_
#define TESTS_GOLDEN_DIGESTS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

namespace p2 {
namespace golden {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

// FNV-1a over `s`, continuing from `h` so callers can fold many strings.
inline uint64_t Fnv1a(const std::string& s, uint64_t h = kFnvOffset) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

inline ::testing::AssertionResult GoldenMatches(const char* name, uint64_t got,
                                                uint64_t pinned) {
  if (got == pinned) {
    return ::testing::AssertionSuccess();
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "golden %s = 0x%016llxULL (pinned 0x%016llxULL)",
                name, static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(pinned));
  return ::testing::AssertionFailure() << buf;
}

// EXPECT_GOLDEN(observed, kName): observed must equal the pinned golden::kName.
#define EXPECT_GOLDEN(got, name) \
  EXPECT_TRUE(::p2::golden::GoldenMatches(#name, (got), ::p2::golden::name))

// ---- hot-path workloads (tests/engine/join_equivalence_test.cc) ----
constexpr uint64_t kEngineWorkloadTables = 0x653cf5ff456c0015ULL;
constexpr uint64_t kEngineWorkloadTraces = 0x9a4d1eaed5550b22ULL;
constexpr uint64_t kEngineWorkloadCounters = 0x627739352c2cc236ULL;
constexpr uint64_t kPathVectorTables = 0x05d09be6a026f4e6ULL;
constexpr uint64_t kPathVectorTraces = 0x5e14494a5481a59fULL;
constexpr uint64_t kPathVectorCounters = 0xdf1674f3668df7f2ULL;

// ---- faulty simfuzz schedule, seed 57 (tests/net/shard_equivalence_test.cc) ----
constexpr uint64_t kFaultyScheduleTotalMsgs = 4474;
constexpr uint64_t kFaultyScheduleTableDigest = 0x4adaa08b8dc1f610ULL;
constexpr uint64_t kFaultyScheduleFullDigest = 0x4a1f94c138fe4872ULL;

// ---- wire-decode corpus (tests/net/wire_decode_equivalence_test.cc) ----
constexpr uint64_t kDecodeEveryValueKind = 0xa737282bf30b45c8ULL;
constexpr uint64_t kDecodeFlagCombinations = 0x7aa2a77b807d4ab1ULL;
constexpr uint64_t kDecodeEmptyNameZeroArity = 0x64246695a0572c05ULL;
constexpr uint64_t kDecodeRandomizedSweep = 0x35625b3c7bd302e1ULL;
constexpr uint64_t kDecodeMalformedInputs = 0x61ec7b71f02201d2ULL;

}  // namespace golden
}  // namespace p2

#endif  // TESTS_GOLDEN_DIGESTS_H_
