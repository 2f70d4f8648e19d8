/**
 * @file
 * The one way this tree reads a whole file into memory.
 *
 * Checkpoint archives, the result-store journal, the checkpoint
 * index, segment files on filesystems that refuse mmap, and serve
 * submissions are all read whole before they are parsed. Stream
 * iterators pull such a file through a byte at a time and grow the
 * buffer by doubling; this reads it with one fstat-sized buffer and a
 * read(2) loop instead, which is an order of magnitude faster on the
 * multi-megabyte archives and journals and never over-allocates.
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

} // namespace sim
} // namespace varsim

#endif // VARSIM_SIM_FILE_IO_HH
