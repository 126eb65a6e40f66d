/**
 * @file
 * Compile-time member count of an aggregate of scalar members: the
 * largest N for which T{x1, ..., xN} is well-formed. Unlike sizeof it
 * changes with every member added or removed, even one that lands in
 * padding.
 */

#ifndef VTSIM_COMMON_AGGREGATE_ARITY_HH
#define VTSIM_COMMON_AGGREGATE_ARITY_HH

#include <cstddef>

namespace vtsim {

/** Converts to any member type; only named in unevaluated code. */
struct AnyMember
{
    template <typename T>
    constexpr operator T() const noexcept;
};

template <typename T, typename... Members>
constexpr std::size_t
aggregateArity()
{
    if constexpr (requires { T{Members{}..., AnyMember{}}; })
        return aggregateArity<T, Members..., AnyMember>();
    else
        return sizeof...(Members);
}

} // namespace vtsim

#endif // VTSIM_COMMON_AGGREGATE_ARITY_HH
