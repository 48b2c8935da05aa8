//===- challenge/ChallengeFormat.cpp - Instance (de)serialization ---------===//

#include "challenge/ChallengeFormat.h"

#include <sstream>

using namespace rc;

void rc::writeChallenge(std::ostream &OS, const CoalescingProblem &P) {
  OS << "# coalescing challenge instance\n";
  OS << "k " << P.K << "\n";
  OS << "n " << P.G.numVertices() << "\n";
  for (unsigned U = 0; U < P.G.numVertices(); ++U)
    for (unsigned V : P.G.neighbors(U))
      if (V > U)
        OS << "e " << U << " " << V << "\n";
  for (const Affinity &A : P.Affinities)
    OS << "a " << A.U << " " << A.V << " " << A.Weight << "\n";
}

static bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

bool rc::checkInstanceHeader(unsigned K, unsigned N, std::string *Error) {
  if (K == 0)
    return fail(Error, "k must be at least 1");
  if (N > MaxInstanceVertices)
    return fail(Error, "n = " + std::to_string(N) + " exceeds the limit of " +
                           std::to_string(MaxInstanceVertices) + " vertices");
  return true;
}

bool rc::readChallenge(std::istream &IS, CoalescingProblem &P,
                       std::string *Error) {
  P = CoalescingProblem();
  bool SawK = false, SawN = false;
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(IS, Line)) {
    ++LineNo;
    std::istringstream LS(Line);
    std::string Tag;
    if (!(LS >> Tag) || Tag[0] == '#')
      continue;
    auto where = [LineNo] { return "line " + std::to_string(LineNo) + ": "; };
    if (Tag == "k") {
      if (SawK)
        return fail(Error, where() + "duplicate 'k' line");
      if (!(LS >> P.K))
        return fail(Error, where() + "expected register count after 'k'");
      SawK = true;
    } else if (Tag == "n") {
      if (SawN)
        return fail(Error, where() + "duplicate 'n' line");
      unsigned N;
      if (!(LS >> N))
        return fail(Error, where() + "expected vertex count after 'n'");
      // Checked before Graph(N) allocates; a 'k' that is still to come is
      // checked with the complete header at the end.
      std::string HeaderError;
      if (!checkInstanceHeader(SawK ? P.K : 1, N, &HeaderError))
        return fail(Error, where() + HeaderError);
      P.G = Graph(N);
      SawN = true;
    } else if (Tag == "e") {
      unsigned U, V;
      if (!SawN)
        return fail(Error, where() + "'e' before 'n'");
      if (!(LS >> U >> V) || U >= P.G.numVertices() ||
          V >= P.G.numVertices() || U == V)
        return fail(Error, where() + "malformed interference edge");
      P.G.addEdge(U, V);
    } else if (Tag == "a") {
      unsigned U, V;
      double W;
      if (!SawN)
        return fail(Error, where() + "'a' before 'n'");
      if (!(LS >> U >> V >> W) || U >= P.G.numVertices() ||
          V >= P.G.numVertices() || U == V)
        return fail(Error, where() + "malformed affinity");
      P.Affinities.push_back({U, V, W});
    } else {
      return fail(Error, where() + "unknown tag '" + Tag + "'");
    }
  }
  if (!SawN)
    return fail(Error, "missing 'n' line");
  if (!SawK)
    return fail(Error, "missing 'k' line");
  return checkInstanceHeader(P.K, P.G.numVertices(), Error);
}
