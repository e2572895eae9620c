// core/container_concept.hpp — the shape-parameterized ConcurrentContainer
// concept every structure in this library models.
//
// Nothing in the harness (phase templates, registry factories, reclaim
// templating, the net front-end) depends on LIFO order — only on "insert a
// value" / "remove some value" / "observe without removing". This header
// names that contract once:
//
//   * `push` / `pop` / `peek` are the only spellings. A queue's push
//     enqueues and its pop dequeues; the runner phase loops, AnyStack and
//     SecServer all call these three.
//   * `kShape` is a compile-time trait naming the removal order the
//     container guarantees; the conformance harness
//     (tests/container_conformance_test.cpp) derives its order-checking
//     oracle from it, secbench prints it in `--list` and refuses to
//     benchmark a shape-mixed `--algos` set within one scenario.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string_view>

namespace sec {

enum class ContainerShape : std::uint8_t {
    lifo = 0,  // pop() returns the newest element (stack order)
    fifo = 1,  // pop() returns the oldest element (queue order)
};

constexpr std::string_view shape_name(ContainerShape s) noexcept {
    return s == ContainerShape::lifo ? "lifo" : "fifo";
}

// What a container must provide to participate in the library: a value
// type, a removal-order trait, push (false only on resource exhaustion),
// and optional-returning pop/peek (nullopt == EMPTY; peek observes the
// element pop() would return: the top of a stack, the front of a queue).
template <class C>
concept ConcurrentContainer =
    requires(C c, const typename C::value_type v) {
        typename C::value_type;
        { C::kShape } -> std::convertible_to<ContainerShape>;
        { c.push(v) } -> std::convertible_to<bool>;
        { c.pop() } -> std::same_as<std::optional<typename C::value_type>>;
        { c.peek() } -> std::same_as<std::optional<typename C::value_type>>;
    };

}  // namespace sec
