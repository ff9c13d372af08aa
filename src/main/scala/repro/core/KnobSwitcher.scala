package repro.core

import repro.sim.{Decision, Placement, Probe}

/** The reactive knob switcher (paper §4.2).
  *
  * Three steps per segment:
  *  1. classify the current content category from the reported quality of
  *     the configuration that just ran (Eq. 5 — one KMeans dimension);
  *  2. look the category up in the knob plan → target histogram α_c;
  *  3. pick the config maximizing plan adherence, `argmax α_c[i] − α̂_c[i]`
  *     (Eq. 6), where α̂_c tracks what was actually used; then the cheapest
  *     placement that does not overflow the buffer, recursively degrading to
  *     the next-less-qualitative config when no placement fits; when no
  *     config fits, the cheapest at the largest offload within the budget.
  */
final class KnobSwitcher(cats: ContentCategories, qualHat: Array[Array[Double]],
                         placements: Vector[Placement]) {
  private val nConfigs = qualHat(0).length
  // Placements cheapest first, for every config: a probe prices the cloud as
  // work · cloudFrac · price with work, price ≥ 0, so cloudFrac order is
  // cloud-cost order.
  private val byCloudCost: Array[Placement] = placements.sortBy(_.cloudFrac).toArray

  private var plan: KnobPlan = _
  private val usedCounts = Array.ofDim[Double](cats.n, nConfigs)
  private val usedTotals = Array.ofDim[Double](cats.n)
  private var curCategory: Int = 0
  private var lastChosenCategory: Int = 0

  def setPlan(p: KnobPlan): Unit = { plan = p }
  def currentCategory: Int = curCategory

  /** α̂_c[k]: observed usage frequency of config k on category c. */
  def usedFrac(c: Int, k: Int): Double =
    if (usedTotals(c) <= 0) 0.0 else usedCounts(c)(k) / usedTotals(c)

  /** fallback(c)(k): the configs to try on category c when Eq. 6 picks k —
    * k, then the others by quality rank on c, best first ("next less
    * qualitative", the degradation order).
    */
  private val fallback: Array[Array[Array[Int]]] = qualHat.map { q =>
    val order = (0 until nConfigs).sortBy(k => -q(k))
    Array.tabulate(nConfigs)(k => (k +: order.filterNot(_ == k)).toArray)
  }

  def choose(probe: Probe): Decision = {
    require(plan != null, "knob plan not set")
    val c = curCategory
    lastChosenCategory = c
    // Eq. 6: maximize plan-adherence deficit; the first of equal deficits
    // wins, in Double's total order (as `maxBy` under Ordering[Double]).
    val alpha = plan.alpha(c)
    var kNext = 0
    var best = alpha(0) - usedFrac(c, 0)
    var k = 1
    while (k < nConfigs) {
      val v = alpha(k) - usedFrac(c, k)
      if (java.lang.Double.compare(v, best) > 0) { kNext = k; best = v }
      k += 1
    }

    // Fallback chain: kNext, then configs of decreasing expected quality.
    val chain = fallback(c)(kNext)
    var j = 0
    while (j < chain.length) {
      var m = 0
      while (m < byCloudCost.length) {
        if (probe.feasible(chain(j), byCloudCost(m))) return Decision(chain(j), byCloudCost(m))
        m += 1
      }
      j += 1
    }

    // Nothing fits (should not happen when the cheapest config is
    // provisioned to run in real time): the cheapest config at the largest
    // offload the remaining budget pays for, else the cheapest placement.
    // The buffer yields, not the budget; the simulator counts the overflow.
    val cheapest = (0 until nConfigs).minBy(probe.work)
    var m = byCloudCost.length - 1
    while (m > 0 && probe.cloudCost(cheapest, byCloudCost(m)) > probe.cloudRemaining) m -= 1
    Decision(cheapest, byCloudCost(m))
  }

  /** Update α̂ and re-classify the content category from the REPORTED
    * quality (certainty) of the config that just ran (Eq. 5).
    */
  def observe(cfgIdx: Int, reportedQual: Double): Unit = {
    usedCounts(lastChosenCategory)(cfgIdx) += 1
    usedTotals(lastChosenCategory) += 1
    curCategory = cats.classifyOnline(cfgIdx, reportedQual)
  }
}
