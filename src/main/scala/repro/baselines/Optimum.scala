package repro.baselines

import repro.core.SegmentTrace

/** Ground-truth optimum baseline (paper §5.4, variant 2c): knows the true
  * quality of every configuration on every segment ahead of time and uses
  * the greedy 0-1-knapsack approximation to assign configurations under a
  * total-work budget.
  */
object Optimum {

  final case class Assignment(chosen: Array[Int], totalQuality: Double,
                              qualityPct: Double, workCoreSec: Double)

  /** Greedy knapsack: start with the per-segment cheapest config, then apply
    * quality upgrades along each segment's (cost, quality) Pareto frontier
    * in globally decreasing Δquality/Δcost order until `budgetCoreSec` is
    * exhausted.
    */
  def assign(trace: SegmentTrace, budgetCoreSec: Double): Assignment = {
    val n = trace.nSegments
    val chosen = Array.ofDim[Int](n)
    var work = 0.0
    var quality = 0.0

    // Per-segment Pareto frontiers (ascending cost, strictly ascending qual).
    val frontiers = Array.tabulate(n) { i =>
      val byCost = (0 until trace.nConfigs).sortBy(trace.cost(i, _))
      val f = scala.collection.mutable.ArrayBuffer[Int]()
      var bestQ = Double.NegativeInfinity
      for (k <- byCost) if (trace.qual(i, k) > bestQ + 1e-12) { f += k; bestQ = trace.qual(i, k) }
      f.toArray
    }
    val level = Array.fill(n)(0) // index into frontier
    for (i <- 0 until n) {
      chosen(i) = frontiers(i)(0)
      work += trace.cost(i, chosen(i))
      quality += trace.qual(i, chosen(i))
    }

    // Upgrade steps ordered by efficiency. A heap keyed on the NEXT upgrade
    // of each segment yields the greedy order (frontier steps per segment
    // have decreasing efficiency only approximately, so we re-insert).
    final case class Step(i: Int, lvl: Int, dq: Double, dc: Double) {
      def eff: Double = dq / math.max(dc, 1e-12)
    }
    implicit val ord: Ordering[Step] = Ordering.by((s: Step) => s.eff)
    val heap = scala.collection.mutable.PriorityQueue.empty[Step]
    def push(i: Int): Unit = {
      val f = frontiers(i)
      val l = level(i)
      if (l + 1 < f.length) {
        val dq = trace.qual(i, f(l + 1)) - trace.qual(i, f(l))
        val dc = trace.cost(i, f(l + 1)) - trace.cost(i, f(l))
        heap += Step(i, l, dq, dc)
      }
    }
    (0 until n).foreach(push)

    while (heap.nonEmpty) {
      val s = heap.dequeue()
      if (s.lvl == level(s.i) && work + s.dc <= budgetCoreSec) {
        level(s.i) += 1
        val k = frontiers(s.i)(level(s.i))
        work += s.dc
        quality += s.dq
        chosen(s.i) = k
        push(s.i)
      } else if (s.lvl == level(s.i)) {
        // Can't afford this upgrade; skip the segment (greedy 0-1 behaviour).
      }
    }

    Assignment(chosen, quality, quality / trace.maxTotalQuality, work)
  }
}
