// stack_stress_test.cpp — multi-threaded conservation invariants for every
// container: under balanced churn at 2/4/8 threads, and for the SEC
// containers at 8 threads over a thread bound of 2, every popped value was
// pushed exactly once (no loss, no duplication, no invention). Tagging and
// the conservation oracle live in container_checkers.hpp, shared with the
// shape-conformance suite. Designed to run clean under -DSEC_SANITIZE=thread.
#include <gtest/gtest.h>

#include <cstdint>

#include "container_checkers.hpp"
#include "sec.hpp"

namespace {

namespace st = sec::testing;
using st::Value;

template <class S>
void churn(unsigned threads, std::uint32_t ops_per_thread) {
    auto stack = sec::make_stack<S>(threads + 8);
    st::expect_conserved(st::churn(*stack, threads, ops_per_thread));
}

template <class S>
class StackStressTest : public ::testing::Test {};

// The six LIFO competitors on their default (EBR) reclaimer, the FIFO trio
// (SEC_Q, MS, FCQ), plus the hazard-pointer variants of the CAS-spine
// structures — HP is the scheme whose per-node protect/validate traversal
// most needs the TSan soak (MS dequeue holds two hazard slots at once).
using StackTypes =
    ::testing::Types<sec::CcStack<Value>, sec::EbStack<Value>,
                     sec::FcStack<Value>, sec::SecStack<Value>,
                     sec::TreiberStack<Value>, sec::TsiStack<Value>,
                     sec::SecQueue<Value>, sec::MsQueue<Value>,
                     sec::FcQueue<Value>,
                     sec::TreiberStack<Value, sec::reclaim::HazardDomain>,
                     sec::EbStack<Value, sec::reclaim::HazardDomain>,
                     sec::SecStack<Value, sec::reclaim::HazardDomain>,
                     sec::SecQueue<Value, sec::reclaim::HazardDomain>,
                     sec::MsQueue<Value, sec::reclaim::HazardDomain>>;
TYPED_TEST_SUITE(StackStressTest, StackTypes);

TYPED_TEST(StackStressTest, BalancedChurn2Threads) {
    churn<TypeParam>(2, 40000);
}

TYPED_TEST(StackStressTest, BalancedChurn4Threads) {
    churn<TypeParam>(4, 20000);
}

TYPED_TEST(StackStressTest, BalancedChurn8Threads) {
    churn<TypeParam>(8, 10000);
}

// The SEC containers with more workers than Config::max_threads: at least
// six of the eight have no slot and take the unslotted path, on the same
// structure as the ones that batch.
template <class S>
class PastMaxThreadsTest : public ::testing::Test {};
using SecTypes = ::testing::Types<sec::SecStack<Value>, sec::SecQueue<Value>>;
TYPED_TEST_SUITE(PastMaxThreadsTest, SecTypes);

TYPED_TEST(PastMaxThreadsTest, BalancedChurn8ThreadsOverABoundOf2) {
    auto stack = sec::make_stack<TypeParam>(2);
    st::expect_conserved(st::churn(*stack, 8, 10000));
}

}  // namespace
