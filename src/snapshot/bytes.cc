#include "bytes.hh"

#include <algorithm>
#include <cstdlib>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

namespace vsv
{

namespace
{

std::size_t
pageSize()
{
    static const std::size_t size =
        static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return size;
}

} // namespace

std::size_t
SnapshotBytes::grownCapacity(std::size_t n) const
{
    return std::max(size_ + n, 2 * capacity_);
}

void
SnapshotBytes::reallocate(std::size_t n)
{
    char *fresh = nullptr;
    std::size_t capacity = n;
    if (n >= mapThreshold) {
        const std::size_t page = pageSize();
        capacity = (n + page - 1) / page * page;
        void *p = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
        // A huge page would make a reserved but untouched tail
        // resident, which is what the generous reservation relies on
        // never happening.
        ::madvise(p, capacity, MADV_NOHUGEPAGE);
#endif
        fresh = static_cast<char *>(p);
    } else {
        fresh = static_cast<char *>(std::malloc(n));
        if (!fresh)
            throw std::bad_alloc();
    }
    if (size_ > 0)
        std::memcpy(fresh, data_, size_);
    release();
    data_ = fresh;
    capacity_ = capacity;
}

void
SnapshotBytes::release()
{
    if (!data_)
        return;
    if (capacity_ >= mapThreshold)
        ::munmap(data_, capacity_);
    else
        std::free(data_);
    data_ = nullptr;
    capacity_ = 0;
}

} // namespace vsv
