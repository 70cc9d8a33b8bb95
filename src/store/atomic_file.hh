/**
 * @file
 * The on-disk file discipline shared by the result store
 * (src/store/store.hh) and the warmup snapshot cache
 * (src/harness/warmup_cache.hh): whole-file reads, write-to-temp +
 * rename so no reader (in this process, another process or another
 * machine on a shared filesystem) ever observes a partial file, and
 * quarantine of a rejected file as `<path>.bad` so it is read and
 * rejected at most once. The file formats themselves - and any
 * checksums - belong to the callers.
 */

#ifndef VSV_STORE_ATOMIC_FILE_HH
#define VSV_STORE_ATOMIC_FILE_HH

#include <optional>
#include <string>

namespace vsv
{
namespace store
{

/** The whole contents of `path`; nullopt when it cannot be opened. */
std::optional<std::string> readFile(const std::string &path);

/**
 * Write `bytes` to a temp name beside `path` - `<path>.tmp.<pid>.<n>`
 * with a process-wide sequence number, so concurrent threads and
 * processes never collide - and rename() it over `path`. On failure
 * the temp file is removed, a warn() names what failed, and false is
 * returned; `path` is then untouched.
 */
bool writeFileAtomically(const std::string &path,
                         const std::string &bytes);

/**
 * Rename a rejected file to `<path>.bad`, kept for a post-mortem and
 * never read again, and warn() with `what` (e.g. "result store
 * entry"), `why` and the outcome. rename() is atomic, so of several
 * processes rejecting one file exactly one moves it and the rest find
 * it already gone - both fine.
 */
void quarantineFile(const std::string &path, const std::string &what,
                    const std::string &why);

} // namespace store
} // namespace vsv

#endif // VSV_STORE_ATOMIC_FILE_HH
