/**
 * @file
 * Path helpers the file front ends share (spec-relative `qasm:`/
 * `topo:`/cache paths, stems): string operations, no filesystem access.
 */

#ifndef QCCD_COMMON_FILE_PATH_HPP
#define QCCD_COMMON_FILE_PATH_HPP

#include <string>

namespace qccd
{

/** "dir/ring4.topo" -> "ring4": the name without directory and final
 *  extension (a leading-dot name like ".topo" keeps its dot). */
inline std::string
fileStem(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    const size_t start = slash == std::string::npos ? 0 : slash + 1;
    size_t end = path.find_last_of('.');
    if (end == std::string::npos || end <= start)
        end = path.size();
    return path.substr(start, end - start);
}

/** "dir/f.sweep" -> "dir"; "." for a bare file name. */
inline std::string
parentDir(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

/** @p path joined onto @p base_dir; absolute paths, empty paths and an
 *  empty @p base_dir (the working directory) leave it unchanged. */
inline std::string
resolveAgainst(const std::string &path, const std::string &base_dir)
{
    if (path.empty() || path[0] == '/' || base_dir.empty())
        return path;
    return base_dir + "/" + path;
}

} // namespace qccd

#endif // QCCD_COMMON_FILE_PATH_HPP
