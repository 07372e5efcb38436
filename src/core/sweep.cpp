#include "core/sweep.hpp"

#include "common/error.hpp"

namespace qccd
{

const char *
pointOutcomeName(PointOutcome outcome)
{
    switch (outcome) {
      case PointOutcome::Ok:
        return "ok";
      case PointOutcome::Error:
        return "error";
      case PointOutcome::Timeout:
        return "timeout";
      case PointOutcome::Infeasible:
        return "infeasible";
    }
    panicUnless(false, "unknown point outcome");
    return "";
}

PointOutcome
classifyFailure(const std::exception_ptr &error, std::string *message)
{
    panicUnless(error != nullptr, "classifyFailure needs an exception");
    try {
        std::rethrow_exception(error);
    } catch (const TimeoutError &err) {
        *message = err.what();
        return PointOutcome::Timeout;
    } catch (const ConfigError &err) {
        *message = err.what();
        return PointOutcome::Infeasible;
    } catch (const std::exception &err) {
        *message = err.what();
        return PointOutcome::Error;
    } catch (...) {
        *message = "unknown error";
        return PointOutcome::Error;
    }
}

} // namespace qccd
