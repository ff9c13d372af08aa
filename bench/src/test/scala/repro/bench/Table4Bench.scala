package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments

/** Table 4 (Appendix I.1): knob-switcher content-classification accuracy for
  * a varying number of content categories, COVID workload.
  */
class Table4Bench extends AnyFunSuite {

  private val paper = Map(1 -> 1.000, 2 -> 0.988, 3 -> 0.979, 4 -> 0.972, 8 -> 0.959)

  test("Table 4 — switcher accuracy vs number of categories (COVID)") {
    val rows = Experiments.table4()
    println(f"${"categories"}%-11s measured   paper")
    rows.foreach(r => println(f"${r.nCategories}%-11d ${r.accuracy * 100}%7.1f%%   ${paper(r.nCategories) * 100}%5.1f%%"))

    val acc = rows.map(r => r.nCategories -> r.accuracy).toMap
    // 1 category is trivially always right.
    assert(acc(1) == 1.0)
    // Accuracy decays (weakly) as categories multiply.
    assert(acc(2) >= acc(8) - 1e-9)
    // And stays high overall — the paper's single-dimension classification
    // insight (§4.2) holds in this substrate too.
    assert(acc(3) > 0.80, s"acc(3)=${acc(3)}")
    assert(acc(8) > 0.60, s"acc(8)=${acc(8)}")
  }
}
