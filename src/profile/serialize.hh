/**
 * @file
 * Profile persistence.
 *
 * Sentinel profiles a model once; the result is a property of the
 * (model, batch-bucket) pair, not of a process.  Persisting the
 * ProfileDatabase lets later training jobs (or offline planner
 * experiments, e.g. the Fig. 5 sweep) skip the instrumented step
 * entirely — the same reuse the paper leans on when it amortizes
 * profiling over millions of steps.
 *
 * The format is a versioned, line-oriented text file: stable across
 * platforms, diff-able, and deliberately simple to parse.
 */

#ifndef SENTINEL_PROFILE_SERIALIZE_HH
#define SENTINEL_PROFILE_SERIALIZE_HH

#include <iosfwd>
#include <string>

#include "profile/profile_db.hh"

namespace sentinel::prof {

/** Write @p db to @p os.  @return false on stream failure. */
bool saveProfile(const ProfileDatabase &db, std::ostream &os);

/** Write @p db to @p path (overwrites). */
bool saveProfile(const ProfileDatabase &db, const std::string &path);

/**
 * Read a profile previously written by saveProfile().
 *
 * Fatal on malformed input or version mismatch (a stale profile must
 * never silently drive migration of a different graph).  The file is
 * untrusted: records must come in the order saveProfile() writes them,
 * and every count, index, layer and size is range-checked before use.
 */
ProfileDatabase loadProfile(std::istream &is);
ProfileDatabase loadProfile(const std::string &path);

} // namespace sentinel::prof

#endif // SENTINEL_PROFILE_SERIALIZE_HH
