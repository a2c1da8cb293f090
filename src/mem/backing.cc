#include "mem/backing.hh"

#include <algorithm>

#include "common/bytes.hh"

namespace l0vliw::mem
{

std::uint8_t
Backing::defaultByte(Addr addr)
{
    // Cheap per-byte hash; any fixed mixing function works as long as
    // the oracle uses the same one.
    std::uint64_t z = addr + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::uint8_t>(z ^ (z >> 31));
}

std::uint8_t *
Backing::pageSlow(Addr page_id) const
{
    std::unique_ptr<std::uint8_t[]> &p = pages[page_id];
    if (!p) {
        p.reset(new std::uint8_t[kPageBytes]);
        const Addr base = page_id << kPageShift;
        for (Addr i = 0; i < kPageBytes; ++i)
            p[i] = defaultByte(base + i);
    }
    Slot &s = cache[slotOf(page_id)];
    s.id = page_id;
    s.data = p.get();
    return s.data;
}

void
Backing::read(Addr addr, std::uint8_t *out, int size) const
{
    // One page lookup per page touched; an access of at most 8 bytes
    // touches at most two.
    while (size > 0) {
        Addr off = addr & (kPageBytes - 1);
        int n = static_cast<int>(std::min<Addr>(size, kPageBytes - off));
        copySmall(out, page(addr >> kPageShift) + off, n);
        addr += n;
        out += n;
        size -= n;
    }
}

void
Backing::write(Addr addr, const std::uint8_t *in, int size)
{
    while (size > 0) {
        Addr off = addr & (kPageBytes - 1);
        int n = static_cast<int>(std::min<Addr>(size, kPageBytes - off));
        copySmall(page(addr >> kPageShift) + off, in, n);
        addr += n;
        in += n;
        size -= n;
    }
}

} // namespace l0vliw::mem
