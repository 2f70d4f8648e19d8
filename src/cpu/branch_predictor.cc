#include "cpu/branch_predictor.hh"

#include "sim/logging.hh"

namespace varsim
{
namespace cpu
{

namespace
{

bool
isPow2(std::size_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** 2-bit saturating counter update. */
std::uint8_t
saturate(std::uint8_t c, bool up)
{
    if (up)
        return c < 3 ? c + 1 : 3;
    return c > 0 ? c - 1 : 0;
}

} // anonymous namespace

YagsPredictor::YagsPredictor(std::size_t choice_entries,
                             std::size_t cache_entries,
                             std::size_t history_bits)
    : choicePht(choice_entries, 1), takenCache(cache_entries),
      notTakenCache(cache_entries),
      historyMask((1u << history_bits) - 1u)
{
    VARSIM_ASSERT(isPow2(choice_entries) && isPow2(cache_entries),
                  "YAGS table sizes must be powers of two");
}

std::size_t
YagsPredictor::choiceIndex(sim::Addr pc) const
{
    return static_cast<std::size_t>((pc >> 2) &
                                    (choicePht.size() - 1));
}

std::size_t
YagsPredictor::cacheIndex(sim::Addr pc) const
{
    return static_cast<std::size_t>(((pc >> 2) ^ history) &
                                    (takenCache.size() - 1));
}

std::uint16_t
YagsPredictor::cacheTag(sim::Addr pc) const
{
    return static_cast<std::uint16_t>((pc >> 2) & 0xff);
}

bool
YagsPredictor::predict(sim::Addr pc) const
{
    const bool choiceTaken = choicePht[choiceIndex(pc)] >= 2;
    // Consult the cache that records exceptions to the choice.
    const auto &cache = choiceTaken ? takenCache : notTakenCache;
    const CacheEntry &e = cache[cacheIndex(pc)];
    if (e.valid && e.tag == cacheTag(pc))
        return e.counter >= 2;
    return choiceTaken;
}

void
YagsPredictor::update(sim::Addr pc, bool taken)
{
    const std::size_t ci = choiceIndex(pc);
    const bool choiceTaken = choicePht[ci] >= 2;
    auto &cache = choiceTaken ? takenCache : notTakenCache;
    CacheEntry &e = cache[cacheIndex(pc)];
    const bool cacheHit = e.valid && e.tag == cacheTag(pc);

    // The choice PHT trains except when the exception cache hit and
    // agreed with the outcome while disagreeing with the choice
    // (standard YAGS update rule, simplified).
    if (!(cacheHit && (e.counter >= 2) == taken &&
          choiceTaken != taken)) {
        choicePht[ci] = saturate(choicePht[ci], taken);
    }

    // Exception caches allocate on mispredictions by the choice.
    if (cacheHit) {
        e.counter = saturate(e.counter, taken);
    } else if (choiceTaken != taken) {
        e.valid = true;
        e.tag = cacheTag(pc);
        e.counter = taken ? 2 : 1;
    }

    history = ((history << 1) | (taken ? 1u : 0u)) & historyMask;
}

void
YagsPredictor::checkpoint(sim::CheckpointIo &cp)
{
    // choiceIndex() masks with the table's size, so a restored table
    // must have the constructed one (the geometry is no campaign
    // knob: no legitimate snapshot differs).
    const std::size_t entries = choicePht.size();
    const std::size_t at = cp.offset();
    cp.field(choicePht);
    if (choicePht.size() != entries) {
        sim::panic("checkpoint YAGS choice PHT at offset %zu holds %zu "
                   "entries, this predictor has %zu",
                   at, choicePht.size(), entries);
    }
    cp.field(history);
    cp.field(numLookups);
    cp.field(numCorrect);
    for (auto *cache : {&takenCache, &notTakenCache}) {
        for (auto &e : *cache) {
            cp.field(e.tag);
            cp.field(e.counter);
            cp.field(e.valid);
        }
    }
}

ReturnAddressStack::ReturnAddressStack(std::size_t entries)
    : stack(entries, 0)
{
    VARSIM_ASSERT(entries > 0, "RAS needs at least one entry");
}

void
ReturnAddressStack::push(sim::Addr ra)
{
    top = (top + 1) % stack.size();
    stack[top] = ra;
    if (count < stack.size())
        ++count;
}

sim::Addr
ReturnAddressStack::pop()
{
    if (count == 0)
        return 0;
    const sim::Addr ra = stack[top];
    top = (top + stack.size() - 1) % stack.size();
    --count;
    return ra;
}

void
ReturnAddressStack::checkpoint(sim::CheckpointIo &cp)
{
    // push() and pop() index the stack with top and wrap modulo its
    // size, so both must describe the constructed stack.
    const std::size_t entries = stack.size();
    const std::size_t at = cp.offset();
    cp.field(stack);
    if (stack.size() != entries) {
        sim::panic("checkpoint return address stack at offset %zu "
                   "holds %zu entries, this stack has %zu",
                   at, stack.size(), entries);
    }
    const std::size_t topAt = cp.offset();
    cp.field(top);
    cp.field(count);
    if (top >= entries || count > entries) {
        sim::panic("checkpoint return address stack at offset %zu has "
                   "top %zu and count %zu, past its %zu entries",
                   topAt, top, count, entries);
    }
}

IndirectPredictor::IndirectPredictor(std::size_t entries,
                                     std::size_t history_bits)
    : table(entries), historyMask((1u << history_bits) - 1u)
{
    VARSIM_ASSERT(isPow2(entries),
                  "indirect predictor size must be a power of two");
}

std::size_t
IndirectPredictor::index(sim::Addr pc) const
{
    return static_cast<std::size_t>(((pc >> 2) ^ history) &
                                    (table.size() - 1));
}

sim::Addr
IndirectPredictor::predict(sim::Addr pc) const
{
    const Entry &e = table[index(pc)];
    if (e.valid && e.tag == pc)
        return e.target;
    return 0;
}

void
IndirectPredictor::update(sim::Addr pc, sim::Addr target)
{
    Entry &e = table[index(pc)];
    e.valid = true;
    e.tag = pc;
    e.target = target;
    history =
        ((history << 2) ^ static_cast<std::uint32_t>(target >> 2)) &
        historyMask;
}

void
IndirectPredictor::checkpoint(sim::CheckpointIo &cp)
{
    for (auto &e : table) {
        cp.field(e.tag);
        cp.field(e.target);
        cp.field(e.valid);
    }
    cp.field(history);
}

} // namespace cpu
} // namespace varsim
