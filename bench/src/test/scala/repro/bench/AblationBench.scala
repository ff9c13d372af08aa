package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Experiments
import repro.sim.Machines
import repro.workload._

/** §5.4 ablation (Figs. 6–13 are out of scope as figures; their summary
  * claims are checked numerically):
  *
  *  - buffering and cloud bursting each beat the no-buffer/no-cloud variant
  *    on COVID/MOT; combining them adds more;
  *  - MOSEI-HIGH defeats cloud-only (uplink-bound spikes);
  *  - MOSEI-LONG defeats buffer-only (plateau outlasts the buffer);
  *  - at a 1:1 cost ratio, cloud-only approaches buffering & cloud;
  *  - Skyscraper's work-quality point sits between Static and the
  *    ground-truth Optimum, close to Optimum.
  */
class AblationBench extends AnyFunSuite {

  private def byVariant(rows: Seq[Experiments.AblRow]) =
    rows.map(r => r.variant -> r).toMap

  test("Ablation — COVID: buffering and cloud both contribute") {
    val rows = Experiments.ablation(Covid, vCpus = 4)
    rows.foreach(r => println(f"${r.workload}%-11s ${r.variant}%-24s " +
      f"${r.qualityPct * 100}%5.1f%%  cloud ${r.cloudDollars}%6.2f$$"))
    val v = byVariant(rows)
    assert(v("only buffering").qualityPct >= v("no buffering, no cloud").qualityPct - 0.01)
    assert(v("buffering & cloud").qualityPct >= v("only buffering").qualityPct - 0.01)
    assert(v("buffering & cloud").qualityPct > v("no buffering, no cloud").qualityPct + 0.03)
  }

  test("Ablation — MOSEI-HIGH: cloud-only struggles against uplink-bound spikes") {
    val rows = Experiments.ablation(MoseiHigh, vCpus = 8)
    rows.foreach(r => println(f"${r.workload}%-11s ${r.variant}%-24s " +
      f"${r.qualityPct * 100}%5.1f%%  cloud ${r.cloudDollars}%6.2f$$"))
    val v = byVariant(rows)
    assert(v("buffering & cloud").qualityPct >= v("only cloud").qualityPct - 0.01,
      "combining must not lose against cloud-only")
    assert(v("only buffering").qualityPct >= v("only cloud").qualityPct - 0.05,
      "buffering carries HIGH's short spikes at least as well as the cloud")
  }

  test("Ablation — MOSEI-LONG: buffer-only struggles against the long plateau") {
    val rows = Experiments.ablation(MoseiLong, vCpus = 8)
    rows.foreach(r => println(f"${r.workload}%-11s ${r.variant}%-24s " +
      f"${r.qualityPct * 100}%5.1f%%  cloud ${r.cloudDollars}%6.2f$$"))
    val v = byVariant(rows)
    assert(v("buffering & cloud").qualityPct >= v("only buffering").qualityPct - 0.01)
    assert(v("only cloud").cloudDollars > 0 || v("buffering & cloud").cloudDollars > 0,
      "the plateau forces cloud spending")
  }

  test("Ablation — cost ratios: cheap cloud helps, expensive cloud hurts") {
    val cheap = Experiments.ablation(Covid, vCpus = 4, cloudRatio = 1.0)
    val dear  = Experiments.ablation(Covid, vCpus = 4, cloudRatio = 2.5)
    val qCheap = byVariant(cheap)("only cloud").qualityPct
    val qDear  = byVariant(dear)("only cloud").qualityPct
    println(f"COVID only-cloud quality: ratio 1:1 → ${qCheap * 100}%5.1f%%, " +
            f"ratio 5:2 → ${qDear * 100}%5.1f%%")
    // Same dollar budget buys more cloud work at ratio 1:1.
    assert(qCheap >= qDear - 0.01)
  }

  test("Work comparison — Skyscraper sits between Static and Optimum") {
    for (w <- Seq[Workload](Covid, Mot, MoseiHigh, MoseiLong)) {
      val rows = Experiments.workComparison(w)
      rows.foreach(r => println(f"${r.workload}%-11s ${r.method}%-11s " +
        f"work ${r.workCoreSec / 1e6}%8.2fM core·s  qual ${r.qualityPct * 100}%5.1f%%"))
      val m = rows.map(r => r.method -> r).toMap
      assert(m("Skyscraper").qualityPct <= m("Optimum").qualityPct + 0.02,
        s"${w.name}: optimum is an upper bound")
      // Paper: "astonishingly close to optimum" (except MOSEI-LONG).
      if (w != MoseiLong)
        assert(m("Skyscraper").qualityPct > m("Optimum").qualityPct - 0.20,
          s"${w.name}: sky=${m("Skyscraper").qualityPct} opt=${m("Optimum").qualityPct}")
    }
  }

  test("cloud price bookkeeping matches Appendix L") {
    assert(math.abs(Machines.cloudPerCoreSec(1.8) / Machines.onPremPerCoreSec - 1.8) < 1e-12)
    val e2 = Machines.e2s16
    // 8 days of e2-standard-16 at the on-prem discount ≈ paper's 57.6 $.
    assert(math.abs(Machines.onPremDollars(e2, 8 * 24) - 57.6) < 0.1)
  }
}
