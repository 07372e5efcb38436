#include "common/error.hpp"

namespace qccd
{

void
raiseConfigError(const char *msg)
{
    throw ConfigError(msg);
}

void
raiseConfigError(const std::string &msg)
{
    throw ConfigError(msg);
}

void
raiseInternalError(const char *msg)
{
    throw InternalError(msg);
}

void
fatalUnless(bool ok, const std::string &msg)
{
    if (!ok)
        throw ConfigError(msg);
}

void
panicUnless(bool ok, const std::string &msg)
{
    if (!ok)
        throw InternalError(msg);
}

} // namespace qccd
