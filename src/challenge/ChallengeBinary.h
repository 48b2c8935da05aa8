//===- challenge/ChallengeBinary.h - Binary instance format -----*- C++ -*-===//
//
// Part of the register-coalescing-complexity project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact versioned binary serialization of coalescing instances, the
/// mmap-friendly twin of the challenge text format (ChallengeFormat.h).
/// Large sweeps read and write this at a fraction of the text parse cost
/// and a fraction of the size; rc_convert translates between the two.
///
/// Layout (all integers little-endian, no padding):
///
///   offset  size  field
///        0     4  magic "RCBF"
///        4     4  format version (currently 1)
///        8     4  k (register count)
///       12     4  n (vertex count)
///       16     8  edge count E
///       24     8  affinity count A
///       32   8*E  edges: (u32 u, u32 v) with u < v, sorted
///                 lexicographically ascending (canonical, so equal edge
///                 sets serialize byte-identically)
///   32+8*E  16*A  affinities: (u32 u, u32 v, u64 IEEE-754 double bits of
///                 the weight), in list order
///
/// A reader written for version 1 rejects any other version rather than
/// guessing; writers always emit the current version. The format is
/// little-endian on disk regardless of host byte order (serialization goes
/// through explicit byte packing, not struct dumps). The one decoder,
/// readChallengeBinary, parses straight out of an in-memory byte range (a
/// MappedFile view for files). It validates the header counts (including
/// checkInstanceHeader's k and n rule, ChallengeFormat.h), endpoints, edge
/// ordering, self-loops, truncation, and trailing bytes, so a corrupt or
/// foreign file fails loudly instead of producing a plausible-looking
/// instance.
///
/// Vertex names are a diagnostic nicety of the text pipeline and are not
/// carried by the binary format.
///
//===----------------------------------------------------------------------===//

#ifndef CHALLENGE_CHALLENGEBINARY_H
#define CHALLENGE_CHALLENGEBINARY_H

#include "coalescing/Problem.h"

#include <cstddef>
#include <ostream>
#include <string>

namespace rc {

/// The 4-byte magic that opens every binary challenge file.
inline constexpr char ChallengeBinaryMagic[4] = {'R', 'C', 'B', 'F'};

/// The format version this build reads and writes.
inline constexpr uint32_t ChallengeBinaryVersion = 1;

/// Writes \p P in the binary format. Edges are emitted in canonical
/// (sorted, u < v) order whatever the graph's internal adjacency order.
void writeChallengeBinary(std::ostream &OS, const CoalescingProblem &P);

/// Zero-copy binary parse straight out of \p Size bytes at \p Data (no
/// per-record read calls, no intermediate vectors): the header
/// is validated with overflow-checked size arithmetic, the sorted edge
/// array is adopted in place as the graph's CSR rows (the canonical sort
/// order means both adjacency directions come out pre-sorted), and the
/// affinity records are validated and copied once into the final vector.
/// The parse only borrows the bytes; \p P owns all of its storage.
///
/// \param [out] Error diagnostic on failure.
/// \returns true on success, storing the instance into \p P.
bool readChallengeBinary(const unsigned char *Data, size_t Size,
                         CoalescingProblem &P, std::string *Error = nullptr);

/// Reads either format from an in-memory byte range by content: bytes that
/// start with "RCBF" parse via readChallengeBinary, anything else as
/// challenge text (readChallenge).
bool readChallengeBytes(const unsigned char *Data, size_t Size,
                        CoalescingProblem &P, std::string *Error = nullptr);

/// Opens \p Path as a read-only MappedFile (mmap with buffered fallback,
/// see support/MappedFile.h) and reads either format via
/// readChallengeBytes. This is the loader everywhere a file path is in
/// hand: rc_sweep --stream manifests, rc_request --instance, rc_convert.
bool readChallengeFile(const std::string &Path, CoalescingProblem &P,
                       std::string *Error = nullptr);

} // namespace rc

#endif // CHALLENGE_CHALLENGEBINARY_H
