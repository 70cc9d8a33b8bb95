#include "atomic_file.hh"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"

namespace vsv
{
namespace store
{

namespace
{

/** Closes the descriptor it holds. */
struct FileDescriptor
{
    explicit FileDescriptor(int fd_) : fd(fd_) {}
    ~FileDescriptor()
    {
        if (fd >= 0)
            ::close(fd);
    }
    FileDescriptor(const FileDescriptor &) = delete;
    FileDescriptor &operator=(const FileDescriptor &) = delete;

    const int fd;
};

} // namespace

bool
readFileInto(const std::string &path,
             const std::function<char *(std::size_t)> &allocate)
{
    const FileDescriptor file(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
    struct stat st = {};
    if (file.fd < 0 || ::fstat(file.fd, &st) != 0 || !S_ISREG(st.st_mode))
        return false;
    const std::size_t size = static_cast<std::size_t>(st.st_size);
    char *out = allocate(size);
    std::size_t got = 0;
    while (got < size) {
        const ::ssize_t n = ::read(file.fd, out + got, size - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        got += static_cast<std::size_t>(n);
    }
    return true;
}

bool
writeFileAtomically(const std::string &path, std::string_view bytes)
{
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
        "." + std::to_string(seq.fetch_add(1));
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.close();
    if (!os) {
        warn("cannot write " + tmp);
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("cannot move " + tmp + " into place as " + path);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

void
quarantineFile(const std::string &path, const std::string &what,
               const std::string &why)
{
    const std::string bad = path + ".bad";
    if (std::rename(path.c_str(), bad.c_str()) == 0) {
        warn(what + " " + path + " is corrupt (" + why +
             "); quarantined as " + bad);
    } else {
        // Already quarantined (or replaced) by a sibling process, or
        // the directory is read-only: either way no longer our file.
        warn(what + " " + path + " is corrupt (" + why +
             ") and could not be quarantined");
    }
}

} // namespace store
} // namespace vsv
