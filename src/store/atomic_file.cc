#include "atomic_file.hh"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/logging.hh"

namespace vsv
{
namespace store
{

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

bool
writeFileAtomically(const std::string &path, const std::string &bytes)
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
