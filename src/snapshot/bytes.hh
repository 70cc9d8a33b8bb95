/**
 * @file
 * SnapshotBytes: the one owner of a warmup snapshot's bytes.
 *
 * Snapshots are about a megabyte each, and a sweep makes and drops
 * them throughout its life. glibc's malloc serves such buffers from
 * fresh mappings only until the first of them is freed; from then on
 * it raises its mmap threshold past that size and carves every later
 * one from per-thread arenas, which fragment and never shrink (see
 * DESIGN.md §5f). So buffers of mapThreshold bytes and up are
 * anonymous mappings of their own, returned to the kernel when
 * released; smaller ones use malloc. Pages a mapping never touches are
 * never resident, so a writer can reserve generously instead of
 * copying the result out at its exact size.
 */

#ifndef VSV_SNAPSHOT_BYTES_HH
#define VSV_SNAPSHOT_BYTES_HH

#include <cstddef>
#include <cstring>
#include <string_view>

namespace vsv
{

class SnapshotBytes
{
  public:
    /** Capacities from here up are anonymous mappings. */
    static constexpr std::size_t mapThreshold = 64 * 1024;

    SnapshotBytes() = default;
    ~SnapshotBytes() { release(); }

    SnapshotBytes(SnapshotBytes &&other) noexcept
        : data_(other.data_), size_(other.size_), capacity_(other.capacity_)
    {
        other.data_ = nullptr;
        other.size_ = 0;
        other.capacity_ = 0;
    }

    SnapshotBytes &
    operator=(SnapshotBytes &&other) noexcept
    {
        if (this != &other) {
            release();
            data_ = other.data_;
            size_ = other.size_;
            capacity_ = other.capacity_;
            other.data_ = nullptr;
            other.size_ = 0;
            other.capacity_ = 0;
        }
        return *this;
    }

    SnapshotBytes(const SnapshotBytes &) = delete;
    SnapshotBytes &operator=(const SnapshotBytes &) = delete;

    char *data() { return data_; }
    const char *data() const { return data_; }
    std::size_t size() const { return size_; }
    std::string_view view() const { return {data_, size_}; }

    /** Make room for `n` bytes in all; the contents are kept. */
    void
    reserve(std::size_t n)
    {
        if (n > capacity_)
            reallocate(n);
    }

    /** Set the size to `n`; bytes past the old size are unspecified
     *  until written. */
    void
    resize(std::size_t n)
    {
        reserve(n);
        size_ = n;
    }

    void
    append(const void *bytes, std::size_t n)
    {
        // memcpy needs valid pointers even for no bytes.
        if (n == 0)
            return;
        if (n > capacity_ - size_) [[unlikely]]
            reallocate(grownCapacity(n));
        std::memcpy(data_ + size_, bytes, n);
        size_ += n;
    }

  private:
    /** At least size + n, and at least double: appends stay linear. */
    std::size_t grownCapacity(std::size_t n) const;
    /** Move the contents into a fresh buffer of `n` >= size bytes. */
    void reallocate(std::size_t n);
    void release();

    char *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

} // namespace vsv

#endif // VSV_SNAPSHOT_BYTES_HH
