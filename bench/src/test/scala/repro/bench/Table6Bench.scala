package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments

/** Table 6 (Appendix I.3): forecasting MAE (2-day horizon) for different
  * input spans × input split counts, COVID. The paper's takeaway: with 8
  * input splits the MAE is uniformly low regardless of the input span.
  */
class Table6Bench extends AnyFunSuite {

  private val paper = Map(
    (0.5, 1) -> 0.055, (0.5, 2) -> 0.169, (0.5, 4) -> 0.179, (0.5, 8) -> 0.052,
    (1.0, 1) -> 0.056, (1.0, 2) -> 0.112, (1.0, 4) -> 0.107, (1.0, 8) -> 0.048,
    (2.0, 1) -> 0.057, (2.0, 2) -> 0.163, (2.0, 4) -> 0.146, (2.0, 8) -> 0.042,
    (4.0, 1) -> 0.057, (4.0, 2) -> 0.165, (4.0, 4) -> 0.140, (4.0, 8) -> 0.051,
    (8.0, 1) -> 0.062, (8.0, 2) -> 0.056, (8.0, 4) -> 0.137, (8.0, 8) -> 0.048)

  test("Table 6 — forecast MAE vs input features (COVID)") {
    val rows = Experiments.table6()
    println(f"inputDays  splits  measuredMAE  paperMAE")
    rows.foreach(r => println(
      f"${r.inputDays}%8.1f  ${r.splits}%5d   ${r.mae}%9.4f   ${paper((r.inputDays, r.splits))}%7.3f"))

    val m = rows.map(r => (r.inputDays, r.splits) -> r.mae).toMap
    // 8-split featurizations are uniformly accurate (the paper's claim);
    // short smoke runs skip input spans longer than the training history.
    for (in <- Seq(0.5, 1.0, 2.0, 4.0, 8.0) if m.contains((in, 8)))
      assert(m((in, 8)) < 0.15, s"in=$in mae=${m((in, 8))}")
    // Everything trains to something usable.
    m.values.foreach(v => assert(!v.isNaN && v < 0.5))
  }
}
