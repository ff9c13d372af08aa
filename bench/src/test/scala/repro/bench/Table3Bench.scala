package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments

/** Table 3 (Appendix E): runtimes of the offline-phase steps for COVID.
  * Absolute times differ from the paper (their steps run CV models on two
  * 60-vCPU machines; ours run the analytic substrate on the driver) — the
  * reproduced property is the breakdown shape: creating the forecast
  * training data (the full-data pass) dominates.
  */
class Table3Bench extends AnyFunSuite {

  private val paperSeconds = Map(
    "Filter knob configurations" -> 6.0 * 60,
    "Filter task placements" -> 4.0 * 60,
    "Compute content categories" -> 5.0 * 60,
    "Create forecast training data" -> 1.3 * 3600,
    "Train forecast model" -> 1.0 * 60,
  )

  test("Table 3 — offline step runtimes (COVID)") {
    val rows = Experiments.table3()
    println(f"${"step"}%-32s measured   paper")
    rows.foreach { r =>
      println(f"${r.step}%-32s ${r.seconds}%7.2fs   ${paperSeconds(r.step)}%7.0fs")
    }
    val bySeconds = rows.map(r => r.step -> r.seconds).toMap
    // Shape: the full-data pass dominates the other Spark/driver steps.
    val dataStep = bySeconds("Create forecast training data")
    assert(dataStep > bySeconds("Filter knob configurations"))
    assert(dataStep > bySeconds("Train forecast model"))
    assert(dataStep > bySeconds("Filter task placements"))
    assert(rows.forall(_.seconds >= 0))
  }
}
