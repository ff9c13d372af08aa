package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments

/** Table 5 (Appendix I.3): forecasting MAE for planned-interval lengths of
  * {1, 2, 4, 8} days on COVID and MOT. The paper's shape: a sweet spot at
  * 2 days, clearly worst at 8 days.
  */
class Table5Bench extends AnyFunSuite {

  private val paper = Map(
    ("COVID", 1) -> 0.097, ("COVID", 2) -> 0.042, ("COVID", 4) -> 0.066, ("COVID", 8) -> 0.149,
    ("MOT", 1) -> 0.108, ("MOT", 2) -> 0.064, ("MOT", 4) -> 0.133, ("MOT", 8) -> 0.185)

  test("Table 5 — forecast MAE vs planned-interval length") {
    val rows = Experiments.table5()
    println(f"${"workload"}%-9s horizon  measuredMAE  paperMAE")
    rows.foreach(r => println(
      f"${r.workload}%-9s ${r.horizonDays}%5dd   ${r.mae}%9.4f   ${paper((r.workload, r.horizonDays))}%7.3f"))

    for (w <- Seq("COVID", "MOT")) {
      val m = rows.filter(_.workload == w).map(r => r.horizonDays -> r.mae).toMap
      // All evaluable horizons produce usable forecasts (short smoke runs
      // skip horizons longer than the test stream).
      m.values.foreach(v => assert(!v.isNaN && v < 0.5))
      // Shape: forecasting 8 days out is the hardest of the sweep.
      if (m.contains(8))
        assert(m(8) >= m(2) - 0.02, s"$w: mae(8)=${m(8)} mae(2)=${m(2)}")
      // The 1–4 day regime stays accurate (paper: does not harm end-to-end).
      assert(m(2) < 0.15, s"$w: mae(2)=${m(2)}")
    }
  }
}
