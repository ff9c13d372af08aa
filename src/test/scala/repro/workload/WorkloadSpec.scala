package repro.workload

import org.scalatest.funsuite.AnyFunSuite

class WorkloadSpec extends AnyFunSuite {

  private val workloads = Seq(Covid, Mot, MoseiHigh, MoseiLong)

  test("config grids have the expected sizes") {
    assert(Covid.allConfigs.size == 5 * 4 * 2)
    assert(Mot.allConfigs.size == 4 * 2 * 4 * 3)
    assert(MoseiHigh.allConfigs.size == 7 * 6 * 3 * 6)
  }

  test("grid ids are unique and aligned") {
    for (w <- workloads) {
      val ids = w.allConfigs.map(_.id)
      assert(ids == ids.distinct)
      assert(ids == ids.sorted)
      assert(w.allConfigs.forall(_.values.length == w.knobs.length))
    }
  }

  test("costs are positive, robustness within [0,1]") {
    for (w <- workloads; p <- w.profiles) {
      assert(p.unitCost > 0, s"${w.name} cfg ${p.id}")
      assert(p.rho >= 0 && p.rho <= 1, s"${w.name} cfg ${p.id} rho=${p.rho}")
    }
  }

  test("cost is monotone in each knob's expensive direction (COVID)") {
    val w = Covid
    for (cfg <- w.allConfigs) {
      val c = w.unitCost(cfg)
      // more fps costs more
      val fasterFps = w.allConfigs.find(o =>
        o.values(0) > cfg.values(0) && o.values.drop(1) == cfg.values.drop(1))
      fasterFps.foreach(o => assert(w.unitCost(o) > c))
      // more frequent detection costs more (smaller detEvery)
      val denserDet = w.allConfigs.find(o =>
        o.values(1) < cfg.values(1) && o.values(0) == cfg.values(0) && o.values(2) == cfg.values(2))
      denserDet.foreach(o => assert(w.unitCost(o) > c))
    }
  }

  test("robustness is monotone in each knob's expensive direction (COVID)") {
    val w = Covid
    for (cfg <- w.allConfigs) {
      val r = w.robustness(cfg)
      val better = w.allConfigs.filter(o =>
        o.values(0) >= cfg.values(0) && o.values(1) <= cfg.values(1) &&
        o.values(2) >= cfg.values(2) && o.values != cfg.values)
      better.foreach(o => assert(w.robustness(o) >= r - 1e-12))
    }
  }

  test("COVID cost spectrum spans the Table-2 machine range") {
    val costs = Covid.profiles.map(_.unitCost)
    assert(costs.min < 1.0, s"cheapest=${costs.min}")   // runs on anything
    assert(costs.max > 60.0, s"top=${costs.max}")       // exceeds c2-standard-60
    assert(costs.exists(c => c > 4 && c <= 16))         // mid-range exists
  }

  test("MOT cost spectrum spans the machine range") {
    val costs = Mot.profiles.map(_.unitCost)
    assert(costs.min < 1.0)
    assert(costs.max > 60.0)
  }

  test("quality decreases with difficulty, increases with robustness") {
    val w = Covid
    val cheap = w.profiles.minBy(_.unitCost)
    val top   = w.profiles.maxBy(_.rho)
    // Compare relative to the top config at the same difficulty (quality is
    // weighted by content mass, so absolute values differ across segments).
    val easyRatio = w.quality(cheap, 1, 0.05, 1.0) / w.quality(top, 1, 0.05, 1.0)
    val hardRatio = w.quality(cheap, 1, 0.9, 1.0) / w.quality(top, 1, 0.9, 1.0)
    assert(easyRatio > 0.8, s"easy cheap/top $easyRatio")
    assert(hardRatio < 0.4, s"hard cheap/top $hardRatio")
    // The top config keeps near-full detection quality on hard content.
    assert(w.quality(top, 1, 0.9, 1.0) / w.qualityWeight(0.9) > 0.9)
  }

  test("quality is within [0, 1] for every workload") {
    for (w <- workloads; p <- Seq(w.profiles.head, w.profiles.last);
         d <- Seq(0.0, 0.3, 0.7, 1.0); load <- Seq(1.0, 10.0, 62.0)) {
      val q = w.quality(p, 5, d, load)
      assert(q >= 0 && q <= 1, s"${w.name} ${p.id} d=$d load=$load q=$q")
    }
  }

  test("MOSEI coverage caps quality by analyzed streams") {
    val w = MoseiHigh
    val smallCap = w.profiles.filter(_.streamCap == 2.0).maxBy(_.rho)
    val bigCap   = w.profiles.filter(_.streamCap == 62.0).maxBy(_.rho)
    val qSmall = w.quality(smallCap, 1, 0.2, 62.0)
    val qBig   = w.quality(bigCap, 1, 0.2, 62.0)
    assert(qSmall < 0.1, s"qSmall=$qSmall") // 2/62 coverage
    assert(qBig > 0.5, s"qBig=$qBig")
  }

  test("MOSEI cost scales with analyzed streams, not offered load") {
    val w = MoseiHigh
    val p = w.profiles.find(_.streamCap == 8.0).get
    assert(w.costPerSec(p, 62.0) == p.unitCost * 8.0)
    assert(w.costPerSec(p, 4.0) == p.unitCost * 4.0)
  }
}
