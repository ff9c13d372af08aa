package repro.util

/** Deterministic Lloyd's KMeans with farthest-point ("kmeans++-style",
  * deterministic variant) seeding.
  *
  * Skyscraper clusters |K|-dimensional quality vectors — at most a few
  * thousand points of dimension ≤ 10 — so a driver-local implementation is
  * appropriate. The quality vectors themselves (segments × configurations)
  * are filled on the driver in a parallel loop over segments
  * (`repro.core.QualityMatrix`).
  */
object KMeansLocal {

  /** Fitted model: `centers(c)(k)` = average quality of config k on category c. */
  final case class Model(centers: Array[Array[Double]]) {
    def k: Int = centers.length

    /** Full-vector nearest-center classification. */
    def classify(v: Array[Double]): Int = nearest(centers, v)

    /** Single-dimension classification (paper Eq. 5): nearest center along
      * dimension `dim` only — what the knob switcher can observe online.
      */
    def classifyByDim(dim: Int, value: Double): Int = {
      var best = 0
      var bestD = Double.MaxValue
      var c = 0
      while (c < centers.length) {
        val d = math.abs(centers(c)(dim) - value)
        if (d < bestD) { bestD = d; best = c }
        c += 1
      }
      best
    }
  }

  /** Index of the center nearest to `v`; a tie goes to the lowest index. */
  private def nearest(centers: Array[Array[Double]], v: Array[Double]): Int = {
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

  /** Fit `k` clusters on `points`; deterministic in (points, k). */
  def fit(points: Seq[Array[Double]], k: Int): Model = {
    require(points.nonEmpty, "KMeans on empty point set")
    require(k >= 1, "k must be >= 1")
    val pts  = points.toArray
    val kEff = math.min(k, pts.length)

    // Farthest-point seeding from the point closest to the centroid.
    val dim = pts(0).length
    val mean = Array.ofDim[Double](dim)
    pts.foreach(p => (0 until dim).foreach(i => mean(i) += p(i) / pts.length))
    val seeds = scala.collection.mutable.ArrayBuffer[Array[Double]]()
    seeds += pts.minBy(sqDist(_, mean)).clone()
    while (seeds.length < kEff)
      seeds += pts.maxBy(p => seeds.map(sqDist(_, p)).min).clone()
    val centers = seeds.toArray

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
    Model(centers.map(_.clone()))
  }
}
