/**
 * @file
 * Open-addressing hash map keyed by block address.
 *
 * The directory consults its sharer/owner table, and the snooping
 * bus its snoop filter, once per coherence transition — detailed and
 * functional-warming alike — so lookup cost is on the critical path of
 * both engines. std::unordered_map pays a heap-allocated node and a
 * pointer chase per probe; this flat table with linear probing
 * resolves the common hit in a single cache line.
 *
 * Deliberately minimal: insert-or-default, const find, clear. No
 * erase — entries persist until the table is rebuilt from cache tags
 * (checkpoint restore), which uses clear().
 */

#ifndef VARSIM_MEM_ADDR_MAP_HH
#define VARSIM_MEM_ADDR_MAP_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace varsim
{
namespace mem
{

template <typename V>
class AddrMap
{
  public:
    AddrMap() : slots(kInitialCap) {}

    /** Find @p key, default-constructing its value if absent. */
    V &
    operator[](sim::Addr key)
    {
        if ((count + 1) * 4 >= slots.size() * 3)
            grow();
        Slot &s = probe(slots, key);
        if (s.key == kEmpty) {
            s.key = key;
            s.value = V{};
            ++count;
        }
        return s.value;
    }

    /** Find @p key; nullptr if absent. */
    const V *
    find(sim::Addr key) const
    {
        const Slot &s =
            probe(const_cast<std::vector<Slot> &>(slots), key);
        return s.key == kEmpty ? nullptr : &s.value;
    }

    /** Drop every entry, keeping the current capacity. */
    void
    clear()
    {
        for (Slot &s : slots)
            s.key = kEmpty;
        count = 0;
    }

    std::size_t size() const { return count; }

  private:
    // Block addresses are block-aligned, so the all-ones pattern can
    // never be a real key and serves as the empty sentinel.
    static constexpr sim::Addr kEmpty = ~sim::Addr{0};
    static constexpr std::size_t kInitialCap = 1024;

    struct Slot
    {
        sim::Addr key = kEmpty;
        V value{};
    };

    static Slot &
    probe(std::vector<Slot> &table, sim::Addr key)
    {
        const std::size_t mask = table.size() - 1;
        // Fibonacci hashing spreads the low-entropy aligned keys.
        std::size_t i =
            (key * 0x9e3779b97f4a7c15ull >> 32) & mask;
        while (table[i].key != kEmpty && table[i].key != key)
            i = (i + 1) & mask;
        return table[i];
    }

    void
    grow()
    {
        std::vector<Slot> next(slots.size() * 2);
        for (const Slot &s : slots) {
            if (s.key == kEmpty)
                continue;
            Slot &d = probe(next, s.key);
            d.key = s.key;
            d.value = s.value;
        }
        slots.swap(next);
    }

    std::vector<Slot> slots;
    std::size_t count = 0;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_ADDR_MAP_HH
