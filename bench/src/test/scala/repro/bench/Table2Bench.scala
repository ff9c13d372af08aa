package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments
import repro.exp.Experiments.T2Row
import repro.workload._

/** Table 2 (Appendix C; plotted as Fig. 4): cost-quality trade-off of
  * Static, Chameleon* and Skyscraper on all four workloads across the
  * machine catalogue. Prints measured rows next to the paper's numbers.
  */
class Table2Bench extends AnyFunSuite {

  /** Paper Table 2: (workload, method, vCpus) → (quality %, cloud $). */
  private val paper: Map[(String, String, Int), (Double, Double)] = Map(
    ("COVID", "Static", 4) -> (35.0, 0.0), ("COVID", "Static", 8) -> (35.0, 0.0),
    ("COVID", "Static", 16) -> (81.0, 0.0), ("COVID", "Static", 32) -> (81.0, 0.0),
    ("COVID", "Static", 60) -> (97.0, 0.0),
    ("COVID", "Chameleon*", 4) -> (37.0, 0.0), ("COVID", "Chameleon*", 8) -> (50.0, 0.0),
    ("COVID", "Chameleon*", 16) -> (74.0, 0.0), ("COVID", "Chameleon*", 32) -> (91.0, 0.0),
    ("COVID", "Skyscraper", 4) -> (90.0, 0.0), ("COVID", "Skyscraper", 8) -> (94.0, 3.3),
    ("MOT", "Static", 4) -> (36.0, 0.0), ("MOT", "Static", 8) -> (79.0, 0.0),
    ("MOT", "Static", 16) -> (81.0, 0.0), ("MOT", "Static", 32) -> (81.0, 0.0),
    ("MOT", "Static", 60) -> (97.0, 0.0),
    ("MOT", "Chameleon*", 4) -> (72.0, 0.0), ("MOT", "Chameleon*", 8) -> (83.0, 0.0),
    ("MOT", "Chameleon*", 16) -> (89.0, 0.0), ("MOT", "Chameleon*", 32) -> (92.0, 0.0),
    ("MOT", "Skyscraper", 4) -> (94.0, 0.0), ("MOT", "Skyscraper", 8) -> (97.0, 2.0),
    ("MOSEI-HIGH", "Static", 4) -> (8.0, 0.0), ("MOSEI-HIGH", "Static", 8) -> (8.0, 0.0),
    ("MOSEI-HIGH", "Static", 16) -> (28.0, 0.0), ("MOSEI-HIGH", "Static", 32) -> (36.0, 0.0),
    ("MOSEI-HIGH", "Static", 60) -> (51.0, 0.0),
    ("MOSEI-HIGH", "Chameleon*", 4) -> (8.0, 0.0), ("MOSEI-HIGH", "Chameleon*", 8) -> (21.0, 0.0),
    ("MOSEI-HIGH", "Chameleon*", 16) -> (32.0, 0.0), ("MOSEI-HIGH", "Chameleon*", 32) -> (37.0, 0.0),
    ("MOSEI-HIGH", "Chameleon*", 60) -> (55.0, 0.0),
    ("MOSEI-HIGH", "Skyscraper", 4) -> (30.0, 0.0), ("MOSEI-HIGH", "Skyscraper", 8) -> (38.0, 0.0),
    ("MOSEI-HIGH", "Skyscraper", 16) -> (45.0, 0.0), ("MOSEI-HIGH", "Skyscraper", 32) -> (59.0, 0.0),
    ("MOSEI-HIGH", "Skyscraper", 60) -> (80.0, 0.0),
    ("MOSEI-LONG", "Static", 4) -> (30.0, 0.0), ("MOSEI-LONG", "Static", 8) -> (30.0, 0.0),
    ("MOSEI-LONG", "Static", 16) -> (38.0, 0.0), ("MOSEI-LONG", "Static", 32) -> (38.0, 0.0),
    ("MOSEI-LONG", "Static", 60) -> (65.0, 0.0),
    ("MOSEI-LONG", "Chameleon*", 4) -> (30.0, 0.0), ("MOSEI-LONG", "Chameleon*", 8) -> (31.0, 0.0),
    ("MOSEI-LONG", "Chameleon*", 16) -> (39.0, 0.0), ("MOSEI-LONG", "Chameleon*", 32) -> (52.0, 0.0),
    ("MOSEI-LONG", "Chameleon*", 60) -> (68.0, 0.0),
    ("MOSEI-LONG", "Skyscraper", 4) -> (37.0, 1.7), ("MOSEI-LONG", "Skyscraper", 8) -> (53.0, 3.3),
    ("MOSEI-LONG", "Skyscraper", 16) -> (62.0, 6.5), ("MOSEI-LONG", "Skyscraper", 32) -> (72.0, 12.9),
  )

  private def report(rows: Seq[T2Row]): Unit = {
    println(f"${"workload"}%-11s ${"method"}%-11s vCPUs  qual%%   cloud$$    total$$  paperQ%%  paperCloud$$")
    rows.foreach { r =>
      val p = paper.get((r.workload, r.method, r.vCpus))
      val pq = p.map(v => f"${v._1}%6.1f").getOrElse("     -")
      val pc = p.map(v => f"${v._2}%6.2f").getOrElse("     -")
      println(r.fmt + f"   $pq  $pc")
    }
  }

  private def quality(rows: Seq[T2Row], method: String, vCpus: Int): Double =
    rows.find(r => r.method == method && r.vCpus == vCpus).get.qualityPct

  test("Table 2 — COVID") {
    val rows = Experiments.table2(Covid)
    report(rows)
    // Shape: Skyscraper on the smallest machine rivals Static on big iron.
    assert(quality(rows, "Skyscraper", 4) > quality(rows, "Static", 4) + 0.10)
    assert(quality(rows, "Skyscraper", 4) >= quality(rows, "Static", 16) - 0.05)
    // Static improves with machine size.
    assert(quality(rows, "Static", 60) > quality(rows, "Static", 4) + 0.15)
  }

  test("Table 2 — MOT") {
    val rows = Experiments.table2(Mot)
    report(rows)
    assert(quality(rows, "Skyscraper", 4) > quality(rows, "Static", 4) + 0.10)
    assert(quality(rows, "Static", 60) > quality(rows, "Static", 4) + 0.15)
  }

  test("Table 2 — MOSEI-HIGH") {
    val rows = Experiments.table2(MoseiHigh)
    report(rows)
    assert(quality(rows, "Skyscraper", 4) > quality(rows, "Static", 4))
    assert(quality(rows, "Skyscraper", 60) > quality(rows, "Static", 60))
  }

  test("Table 2 — MOSEI-LONG") {
    val rows = Experiments.table2(MoseiLong)
    report(rows)
    assert(quality(rows, "Skyscraper", 8) > quality(rows, "Static", 8))
  }

  test("headline: Skyscraper's cost advantage over Static at comparable quality") {
    // Paper §5.3: on MOT, Skyscraper is 8.7× cheaper than Static at
    // comparable quality (their best Skyscraper/Static pair). Measure the
    // same way: over all Skyscraper rows, the best ratio of (cheapest Static
    // reaching that quality) to the Skyscraper row's cost.
    for (w <- Seq[Workload](Covid, Mot)) {
      val rows = Experiments.table2(w)
      val factors = rows.filter(_.method == "Skyscraper").flatMap { sky =>
        rows
          .filter(r => r.method == "Static" && r.qualityPct >= sky.qualityPct - 0.03)
          .sortBy(_.totalDollars).headOption
          .map(st => (sky, st, st.totalDollars / sky.totalDollars))
      }
      val noStaticMatch = rows.filter(_.method == "Skyscraper")
        .filterNot(sky => rows.exists(r =>
          r.method == "Static" && r.qualityPct >= sky.qualityPct - 0.03))
      noStaticMatch.foreach(sky => println(
        f"${w.name}: no Static config reaches Skyscraper@${sky.vCpus}'s " +
        f"${sky.qualityPct * 100}%.1f%% at any price"))
      val (sky, st, factor) = factors.maxBy(_._3)
      println(f"${w.name}: Skyscraper@${sky.vCpus} (${sky.qualityPct * 100}%.1f%%, " +
        f"${sky.totalDollars}%.1f$$) vs comparable Static@${st.vCpus} " +
        f"(${st.qualityPct * 100}%.1f%%, ${st.totalDollars}%.1f$$) → $factor%.1f× cheaper")
      assert(factor > 2.0 || noStaticMatch.nonEmpty,
        s"${w.name}: best cost factor only $factor")
    }
  }

  test("Appendix G: VideoStorm* tracks the static baseline") {
    val vs = Experiments.videoStorm(Covid)
    val rows = Experiments.table2(Covid)
    report(vs)
    for (m <- Seq(4, 8, 16)) {
      val v = quality(vs, "VideoStorm*", m)
      val s = quality(rows, "Static", m)
      assert(math.abs(v - s) < 0.15, s"vCpus=$m videostorm=$v static=$s")
    }
  }
}
