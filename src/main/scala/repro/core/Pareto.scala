package repro.core

import repro.workload.{ConfigProfile, Workload}

/** Offline filtering of the exponential knob-configuration grid down to a
  * small work/quality Pareto set K (paper §3.1, Appendix A.1).
  *
  * K is the thinned exact dominance frontier of each content regime over the
  * whole grid. The paper hill-climbs VideoStorm-style from k⁻ on a few
  * content-diverse segments instead. A climb was once run here as well, its
  * path unioned with the frontier, but the union was pruned back to each
  * regime's frontier, which removed every climbed config the frontier did not
  * already hold: the climb never changed K, so it is gone.
  */
object Pareto {

  /** A sampled segment's content, enough to evaluate the analytic models. */
  final case class Seg(segId: Long, difficulty: Double, load: Double, regime: Int = 0)

  /** Nominal cost of a config used for frontier ordering: work per
    * video-second at full load (caps bounded by the observed max load).
    */
  def nominalCost(p: ConfigProfile, maxLoad: Double): Double =
    p.unitCost * math.min(p.streamCap, maxLoad)

  /** Cheapest configuration k⁻ (found by profiling runtimes in the paper). */
  def cheapest(w: Workload, maxLoad: Double): ConfigProfile =
    w.profiles.minBy(nominalCost(_, maxLoad))

  /** Keep only configs not dominated in (cost, mean quality on `sample`). */
  def dominanceFrontier(w: Workload, cands: Seq[ConfigProfile], sample: Seq[Seg],
                        maxLoad: Double): Vector[ConfigProfile] = {
    val uniq = cands.groupBy(_.id).map(_._2.head).toVector
    frontier(uniq, qualitySums(w, uniq, sample), sample.size, maxLoad)
  }

  /** Each config's quality summed over `sample` in its order, by config id. */
  private def qualitySums(w: Workload, cands: Vector[ConfigProfile],
                          sample: Seq[Seg]): Map[Int, Double] =
    cands.map { p =>
      p.id -> sample.map(s => w.quality(p, s.segId, s.difficulty, s.load, s.regime)).sum
    }.toMap

  /** The configs of `uniq` no other one beats on both cost and mean quality
    * (`qualSum / n`), sorted by cost.
    */
  private def frontier(uniq: Vector[ConfigProfile], qualSum: Map[Int, Double], n: Int,
                       maxLoad: Double): Vector[ConfigProfile] = {
    val withStats = uniq.map(p => (p, nominalCost(p, maxLoad), qualSum(p.id) / math.max(1, n)))
    withStats
      .filter { case (p, c, q) =>
        !withStats.exists { case (o, oc, oq) =>
          o.id != p.id && oc <= c + 1e-12 && oq >= q + 1e-9
        }
      }
      .sortBy(_._2)
      .map(_._1)
  }

  /** The offline filter (paper Appendix A.1): the union of each regime's
    * exact dominance frontier over the whole grid, thinned to at most `maxK`
    * configs, plus the cheapest config and each regime's best.
    *
    * The paper hill-climbs because evaluating a config on a segment means
    * running real CV models; with the analytic substrate the exact frontier
    * is affordable, and unlike a climb it is not stranded at the cheap end by
    * the wide quality plateaus the substrate's robustness shaping creates.
    */
  def filterConfigs(w: Workload, pre: Seq[Seg], maxK: Int = 10): Vector[ConfigProfile] = {
    val maxLoad = if (pre.isEmpty) 1.0 else pre.map(_.load).max
    // Per-regime frontiers so specialist configs (great on one content type,
    // mediocre on average) survive — pruning on MEAN quality would drop
    // exactly the configs the knob plan wants to assign to rare categories.
    // Each regime's quality sums are evaluated once and read by both passes.
    val profiles = w.profiles.groupBy(_.id).map(_._2.head).toVector
    val byRegime = pre.groupBy(_.regime).values.toSeq
      .map(rs => (rs.size, qualitySums(w, profiles, rs)))
    val kept = byRegime.flatMap { case (n, sums) => frontier(profiles, sums, n, maxLoad) }
      .groupBy(_.id).map(_._2.head).toVector
      .sortBy(nominalCost(_, maxLoad))

    // Thin to maxK but always retain the cheapest config and each regime's
    // best config (the plan's per-category workhorses).
    val best = byRegime.map { case (_, sums) => kept.maxBy(p => sums(p.id)) }
    val mustKeep = (cheapest(w, maxLoad) +: best).groupBy(_.id).map(_._2.head).toVector
    val thinned = thin(kept, maxK, nominalCost(_: ConfigProfile, maxLoad))
    (thinned ++ mustKeep).groupBy(_.id).map(_._2.head).toVector
      .sortBy(nominalCost(_, maxLoad))
  }

  /** The same filter; `nSearch` sized the hill climb, which is gone. */
  @deprecated("nSearch is unused; call filterConfigs(w, pre, maxK)", "0.1.0")
  def filterConfigs(w: Workload, pre: Seq[Seg], nSearch: Int, maxK: Int): Vector[ConfigProfile] =
    filterConfigs(w, pre, maxK)

  /** Evenly thin a cost-sorted frontier to `maxK` entries (log-cost spacing),
    * keeping both endpoints.
    */
  def thin(front: Vector[ConfigProfile], maxK: Int,
           costOf: ConfigProfile => Double): Vector[ConfigProfile] = {
    if (front.length <= maxK) return front
    val costs = front.map(p => math.log(math.max(costOf(p), 1e-9)))
    val lo = costs.head; val hi = costs.last
    val targets = (0 until maxK).map(i => lo + (hi - lo) * i / (maxK - 1))
    val picked = targets.map(t => front(costs.indices.minBy(i => math.abs(costs(i) - t))))
    picked.distinct.toVector
  }
}
