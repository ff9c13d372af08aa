package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments
import repro.workload.{Covid, Mot}

/** §5.6 microbenchmarks (Fig. 15 narrative): decompose the knob switcher's
  * misclassifications into the Type-B timing mismatch (classifying the next
  * seconds from the last seconds) and the residual Type-A single-dimension
  * error. Paper: Standard error 2.1% (COVID) / 6.6% (MOT); Type-A residual
  * 0.5% / 3.7% — i.e. the timing mismatch is the dominant driver.
  */
class Micro56Bench extends AnyFunSuite {

  private val paper = Map("COVID" -> (2.1, 0.5), "MOT" -> (6.6, 3.7))

  test("§5.6 — switcher misclassification decomposition") {
    for (w <- Seq(Covid, Mot)) {
      val r = Experiments.switcherErrors(w)
      val (ps, pa) = paper(r.workload)
      println(f"${r.workload}%-6s standard ${r.standardErrPct * 100}%5.2f%% " +
        f"(paper $ps%4.1f%%)   Type-A-only ${r.typeAErrPct * 100}%5.2f%% (paper $pa%4.1f%%)")
      // The timing mismatch adds error on top of the single-dim residual.
      assert(r.standardErrPct >= r.typeAErrPct - 1e-9, r.toString)
      // Classification stays usable overall (the paper's core §4.2 claim).
      assert(r.standardErrPct < 0.30, r.toString)
      assert(r.typeAErrPct < 0.20, r.toString)
    }
  }
}
