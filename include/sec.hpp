// sec.hpp — umbrella header for the sec library: the SEC stack, its five
// competitors (Figure 2 legend order: CC, EB, FC, SEC, TRB, TSI), the FIFO
// trio (SEC_Q, MS, FCQ — the `queue` scenario's matrix), the pluggable
// reclamation subsystem (sec::reclaim — EBR default, plus QSBR, hazard
// pointers, and the leaky baseline), and shared utilities.
#pragma once

#include <algorithm>
#include <memory>
#include <type_traits>

#include "core/cc_stack.hpp"
#include "core/common.hpp"
#include "core/config.hpp"
#include "core/container_concept.hpp"
#include "core/eb_stack.hpp"
#include "core/fc_queue.hpp"
#include "core/fc_stack.hpp"
#include "core/ms_queue.hpp"
#include "core/op_mix.hpp"
#include "core/sec_queue.hpp"
#include "core/sec_stack.hpp"
#include "core/treiber_stack.hpp"
#include "core/tsi_stack.hpp"
#include "reclaim/reclaim.hpp"

namespace sec {

// Construct any of the containers with a bound on concurrently-live threads:
// Config-based structures (SecStack, SecQueue) get a default Config sized to
// the bound, the others take the bound directly.
template <class S>
std::unique_ptr<S> make_stack(std::size_t max_threads) {
    if constexpr (std::is_constructible_v<S, Config>) {
        Config cfg;
        cfg.max_threads =
            std::min(std::max<std::size_t>(max_threads, 1), kMaxThreads);
        cfg.num_aggregators =
            std::min(cfg.num_aggregators, cfg.max_threads);
        return std::make_unique<S>(cfg);
    } else {
        return std::make_unique<S>(
            std::min(std::max<std::size_t>(max_threads, 1), kMaxThreads));
    }
}

}  // namespace sec
