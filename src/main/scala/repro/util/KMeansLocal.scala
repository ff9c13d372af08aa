package repro.util

/** Lloyd's KMeans with deterministic farthest-point seeding in O(n·k·dim).
  *
  * Skyscraper clusters |K|-dimensional quality vectors — at most a few
  * thousand points of dimension ≤ 10 — so a driver-local implementation is
  * appropriate. The quality vectors themselves (segments × configurations)
  * are filled on the driver in a parallel loop over segments
  * (`repro.core.QualityMatrix`).
  */
object KMeansLocal {

  /** Index of the center nearest to `v`; a tie goes to the lowest index. */
  def nearest(centers: Array[Array[Double]], v: Array[Double]): Int = {
    var best = 0
    var bestD = Double.MaxValue
    var c = 0
    while (c < centers.length) {
      val d = sqDist(centers(c), v)
      if (d < bestD) { bestD = d; best = c }
      c += 1
    }
    best
  }

  private def sqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  /** Lloyd iterations stop after this many rounds if assignments still change. */
  private final val MaxIter = 100

  /** `kEff` seeds (copies): the point nearest the centroid, then each time
    * the point farthest from its nearest seed, kept in `nearestD`; a tie goes
    * to the lowest index.
    */
  private def seeds(pts: Array[Array[Double]], kEff: Int): Array[Array[Double]] = {
    val (n, dim) = (pts.length, pts(0).length)
    val mean = new Array[Double](dim)
    var i = 0
    while (i < n) {
      var j = 0
      while (j < dim) { mean(j) += pts(i)(j) / n; j += 1 }
      i += 1
    }
    val seeds = new Array[Array[Double]](kEff)
    seeds(0) = pts(nearest(pts, mean)).clone()
    val nearestD = Array.fill(n)(Double.PositiveInfinity)
    for (s <- 1 until kEff) {
      var far = 0
      i = 0
      while (i < n) {
        nearestD(i) = math.min(nearestD(i), sqDist(seeds(s - 1), pts(i)))
        if (nearestD(i) > nearestD(far)) far = i
        i += 1
      }
      seeds(s) = pts(far).clone()
    }
    seeds
  }

  /** Fit `k` clusters on `points`; deterministic in (points, k). Returns
    * the centers, at most `k` (no more than there are points).
    */
  def fit(points: Seq[Array[Double]], k: Int): Array[Array[Double]] = {
    require(points.nonEmpty, "KMeans on empty point set")
    require(k >= 1, "k must be >= 1")
    val pts  = points.toArray
    val kEff = math.min(k, pts.length)

    val dim = pts(0).length
    val centers = seeds(pts, kEff)

    val assign = Array.ofDim[Int](pts.length)
    var changed = true
    var iter = 0
    while (changed && iter < MaxIter) {
      changed = false
      // Assignment step.
      var i = 0
      while (i < pts.length) {
        val best = nearest(centers, pts(i))
        if (assign(i) != best) { assign(i) = best; changed = true }
        i += 1
      }
      // Update step; empty clusters keep their previous center.
      val sums   = Array.fill(centers.length)(Array.ofDim[Double](dim))
      val counts = Array.ofDim[Int](centers.length)
      i = 0
      while (i < pts.length) {
        val c = assign(i)
        var j = 0
        while (j < dim) { sums(c)(j) += pts(i)(j); j += 1 }
        counts(c) += 1
        i += 1
      }
      for (c <- centers.indices if counts(c) > 0)
        centers(c) = sums(c).map(_ / counts(c))
      iter += 1
    }
    centers
  }
}
