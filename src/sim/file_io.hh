/**
 * @file
 * The one way this tree reads a whole file into memory, and the one
 * way it durably writes one.
 *
 * Checkpoint archives, the result-store journal, segment files on
 * filesystems that refuse mmap, and serve submissions are all read
 * whole before they are parsed. Stream
 * iterators pull such a file through a byte at a time and grow the
 * buffer by doubling; this reads it with one fstat-sized buffer and a
 * read(2) loop instead, which is an order of magnitude faster on the
 * multi-megabyte archives and journals and never over-allocates.
 *
 * Checkpoint archives, store segments and compacted manifests,
 * serve submissions and cancel markers are written whole with
 * writeFileAtomic, so a crash never leaves a torn one behind.
 */

#ifndef VARSIM_SIM_FILE_IO_HH
#define VARSIM_SIM_FILE_IO_HH

#include <string>

namespace varsim
{
namespace sim
{

/**
 * Replace @p out with the contents of @p path. The buffer is sized
 * once from fstat(2) and filled by an EINTR-safe read(2) loop that
 * runs to end of file, so a file that grows or shrinks while it is
 * read (a journal with a live appender) yields whatever read(2)
 * returned, as a stream read would. Returns false with @p error
 * describing the failure (and @p out empty) when the file cannot be
 * opened or read.
 *
 * @tparam Bytes std::string or std::vector<std::uint8_t>.
 */
template <typename Bytes>
bool readWholeFile(const std::string &path, Bytes &out,
                   std::string *error = nullptr);

/**
 * fsync(2) the directory @p dir, so that files created or renamed in
 * it survive a crash. Best effort: not every filesystem allows it.
 */
void syncDirectory(const std::string &dir);

/**
 * Durably write @p bytes as @p dir/@p name: write to a unique
 * temporary in the same directory, fsync, rename(2) over the final
 * name, syncDirectory(). Readers see either the old file or the
 * whole new one; a killed writer leaves only a "<name>.tmp.*" file
 * (the checkpoint library's gc sweeps those). Returns false (with
 * @p error set) on failure.
 *
 * @tparam Bytes std::string or std::vector<std::uint8_t>.
 */
template <typename Bytes>
bool writeFileAtomic(const std::string &dir, const std::string &name,
                     const Bytes &bytes, std::string *error = nullptr);

} // namespace sim
} // namespace varsim

#endif // VARSIM_SIM_FILE_IO_HH
