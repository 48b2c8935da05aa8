//===- challenge/ChallengeFormat.h - Instance (de)serialization -*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small text format for coalescing problem instances, in the spirit of
/// the Appel–George challenge files:
///
///   # comment
///   k <registers>
///   n <num-vertices>
///   e <u> <v>          interference edge
///   a <u> <v> <weight> affinity
///
/// `k` and `n` each appear exactly once, in either order; `e` and `a`
/// lines come after `n`. Every decoded instance, text or binary
/// (ChallengeBinary.h), must also pass checkInstanceHeader, the one place
/// that states what the solvers assume of k and n.
///
//===----------------------------------------------------------------------===//

#ifndef CHALLENGE_CHALLENGEFORMAT_H
#define CHALLENGE_CHALLENGEFORMAT_H

#include "coalescing/Problem.h"

#include <istream>
#include <ostream>
#include <string>

namespace rc {

/// Largest vertex count a decoder accepts: 4x the largest instance any
/// tool, test or benchmark builds (2^20 vertices). The graph is sized from
/// the declared count before any edge is read, so without a ceiling a
/// few-byte header could make a decoder allocate gigabytes.
inline constexpr unsigned MaxInstanceVertices = 1u << 22;

/// The header rule shared by every instance decoder: at least one register
/// and at most MaxInstanceVertices vertices.
///
/// \param [out] Error diagnostic on failure.
/// \returns true when \p K and \p N are acceptable.
bool checkInstanceHeader(unsigned K, unsigned N, std::string *Error);

/// Writes \p P in the text format.
void writeChallenge(std::ostream &OS, const CoalescingProblem &P);

/// Parses an instance from \p IS.
///
/// \param [out] Error diagnostic on failure.
/// \returns true on success, storing the instance into \p P.
bool readChallenge(std::istream &IS, CoalescingProblem &P,
                   std::string *Error = nullptr);

} // namespace rc

#endif // CHALLENGE_CHALLENGEFORMAT_H
