/**
 * @file
 * Counter descriptor tables: one row per std::uint64_t member of a stats
 * struct, so each counter is named once and every renderer (sums,
 * digests, metrics, telemetry, tables) iterates the same rows.
 */

#ifndef SIPROX_STATS_FIELDS_HH
#define SIPROX_STATS_FIELDS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace siprox::stats {

/** One counter of struct @p S. */
template <class S>
struct Field
{
    /** Leaf name, also the metrics/telemetry leaf under S's namespace. */
    const char *name;
    std::uint64_t S::*member;
    /** Digest-group bit set, interpreted by the digest that renders S
     *  (0: no digest renders the field). */
    unsigned digest = 0;
};

/**
 * True when @p fields names distinct members and, with @p other_bytes of
 * non-counter members, accounts for every byte of S: a static_assert on
 * it beside each table makes a counter added without a row a compile
 * error.
 */
template <class S, std::size_t N>
constexpr bool
coversEveryField(const Field<S> (&fields)[N], std::size_t other_bytes = 0)
{
    for (std::size_t i = 0; i < N; ++i) {
        for (std::size_t j = i + 1; j < N; ++j) {
            if (fields[i].member == fields[j].member)
                return false;
        }
    }
    return sizeof(S) == N * sizeof(std::uint64_t) + other_bytes;
}

/** Call put(prefix + row name, value) for every row, in table order. */
template <class S, std::size_t N, class Put>
void
forEachCounter(std::string_view prefix, const S &s,
               const Field<S> (&fields)[N], Put &&put)
{
    std::string key(prefix);
    for (const Field<S> &f : fields) {
        key.resize(prefix.size());
        key += f.name;
        put(std::string_view(key), s.*(f.member));
    }
}

} // namespace siprox::stats

#endif // SIPROX_STATS_FIELDS_HH
