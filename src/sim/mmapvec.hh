/**
 * @file
 * Growable record buffer in its own anonymous mapping, off the malloc
 * arena.
 *
 * Capture records and trace events grow to millions of entries while a
 * workload runs, and a std::vector pays for each doubling by copying
 * every element into a fresh allocation while the old one still
 * exists. MmapVec keeps its elements in a private mapping of whole
 * pages and grows it in place with mremap(MREMAP_MAYMOVE): the kernel
 * moves page-table entries instead of copying records, and the buffer
 * never briefly exists twice. Growth cost is the only reason left:
 * where the buffer lives does not change results, because
 * deterministic addressing (sim/addrmap) translates every host address
 * the workload touches, wherever the allocator placed it.
 *
 * The swap to std::vector has been measured (perfbench, 4-core Xeon
 * container), so do not retry it without a new reason. Capture
 * buffers as std::vector raised fleet4 peak RSS from 357 to 472 MB and
 * replay_sweep set-up time from 1.04 to 1.57 s (one run each).
 * TraceSession buffers as std::vector raised traced_suite peak RSS
 * from 29.8 to about 46 MB (3 of 3 runs) while each span held a
 * 48-byte name buffer; with 24-byte spans of interned names the
 * figure was 28.1 MB against 28.5 to 29.5 MB (3 runs).
 *
 * Where mremap is missing, growth maps a fresh region, copies the
 * elements over and unmaps the old one. ThreadSanitizer builds take
 * that path too: TSan does not intercept mremap, so a moved mapping
 * landing on addresses another thread used keeps that thread's stale
 * shadow state and reports a false race.
 *
 * Only trivially copyable element types are supported: elements are
 * relocated by the kernel or by memcpy, never by constructors.
 */

#ifndef TARTAN_SIM_MMAPVEC_HH
#define TARTAN_SIM_MMAPVEC_HH

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include <sys/mman.h>

#include "sim/logging.hh"

#if defined(__SANITIZE_THREAD__)
#define TARTAN_SIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TARTAN_SIM_TSAN 1
#endif
#endif

namespace tartan::sim {

/** @name Page mappings off the malloc arena. */
///@{

/** Map @p bytes of zeroed, private, read-write memory. */
inline void *
mapPages(std::size_t bytes)
{
    void *mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        throw std::bad_alloc();
    return mem;
}

/** Release a mapPages() region of @p bytes. */
inline void
unmapPages(void *mem, std::size_t bytes) noexcept
{
    ::munmap(mem, bytes);
}

/**
 * Grow a mapPages() region from @p old_bytes to @p new_bytes, keeping
 * its contents; returns the (possibly moved) region.
 */
inline void *
remapPages(void *mem, std::size_t old_bytes, std::size_t new_bytes)
{
#if defined(MREMAP_MAYMOVE) && !defined(TARTAN_SIM_TSAN)
    void *moved = ::mremap(mem, old_bytes, new_bytes, MREMAP_MAYMOVE);
    if (moved == MAP_FAILED)
        throw std::bad_alloc();
    return moved;
#else
    void *fresh = mapPages(new_bytes);
    std::memcpy(fresh, mem, old_bytes);
    unmapPages(mem, old_bytes);
    return fresh;
#endif
}

///@}

/**
 * A move-only vector of trivially copyable @p T on mapPages() storage.
 * It offers the std::vector subset its users need: push_back, append
 * at the end (insert at end()), resize, reserve, indexing, data() and
 * iteration.
 */
template <typename T>
class MmapVec
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "MmapVec relocates elements bytewise");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    MmapVec() = default;
    MmapVec(const MmapVec &) = delete;
    MmapVec(MmapVec &&other) noexcept
        : buf(std::exchange(other.buf, nullptr)),
          count(std::exchange(other.count, 0)),
          bytes(std::exchange(other.bytes, 0))
    {
    }
    MmapVec &
    operator=(MmapVec &&other) noexcept
    {
        std::swap(buf, other.buf);
        std::swap(count, other.count);
        std::swap(bytes, other.bytes);
        return *this;
    }
    ~MmapVec()
    {
        if (buf)
            unmapPages(buf, bytes);
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    std::size_t capacity() const { return bytes / sizeof(T); }

    T *data() { return buf; }
    const T *data() const { return buf; }
    T &operator[](std::size_t i) { return buf[i]; }
    const T &operator[](std::size_t i) const { return buf[i]; }

    iterator begin() { return buf; }
    iterator end() { return buf + count; }
    const_iterator begin() const { return buf; }
    const_iterator end() const { return buf + count; }

    /** Ensure room for @p n elements without further growth. */
    void
    reserve(std::size_t n)
    {
        if (n <= capacity())
            return;
        const std::size_t want = roundToPages(n * sizeof(T));
        buf = static_cast<T *>(buf ? remapPages(buf, bytes, want)
                                   : mapPages(want));
        bytes = want;
    }

    void
    push_back(const T &value)
    {
        if (count == capacity()) {
            const T copy = value;  // @p value may live in the buffer
            grow(count + 1);
            buf[count++] = copy;
            return;
        }
        buf[count++] = value;
    }

    /** Resize to @p n elements; new ones are value-initialized. */
    void
    resize(std::size_t n)
    {
        reserve(n);
        if (n > count)
            std::uninitialized_value_construct_n(buf + count, n - count);
        count = n;
    }

    /** Append [@p first, @p last); @p pos must be end(). */
    iterator
    insert(const_iterator pos, const T *first, const T *last)
    {
        TARTAN_ASSERT(pos == end(), "MmapVec inserts only at the end");
        const std::size_t at = count;
        append(first, static_cast<std::size_t>(last - first));
        return buf + at;
    }

  private:
    static std::size_t
    roundToPages(std::size_t n)
    {
        constexpr std::size_t kPage = 4096;
        return (n + kPage - 1) / kPage * kPage;
    }

    /** Geometric growth to hold at least @p n elements. */
    void
    grow(std::size_t n)
    {
        reserve(std::max(n, 2 * capacity()));
    }

    void
    append(const T *src, std::size_t n)
    {
        if (n == 0)
            return;
        if (count + n > capacity())
            grow(count + n);
        std::memcpy(buf + count, src, n * sizeof(T));
        count += n;
    }

    T *buf = nullptr;
    std::size_t count = 0;
    std::size_t bytes = 0;  //!< mapped bytes (a whole number of pages)
};

} // namespace tartan::sim

#endif // TARTAN_SIM_MMAPVEC_HH
