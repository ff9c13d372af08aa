package repro.util

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class KMeansLocalSpec extends AnyFunSuite {

  test("k=1 yields the centroid") {
    val pts = Seq(Array(0.0, 0.0), Array(2.0, 0.0), Array(1.0, 3.0))
    val centers = KMeansLocal.fit(pts, 1)
    assert(centers.length == 1)
    assert(math.abs(centers(0)(0) - 1.0) < 1e-9)
    assert(math.abs(centers(0)(1) - 1.0) < 1e-9)
  }

  test("recovers well-separated clusters") {
    val rng = new scala.util.Random(7)
    val pts = (0 until 300).map { i =>
      val base = if (i % 3 == 0) Array(0.0, 0.0)
                 else if (i % 3 == 1) Array(10.0, 0.0) else Array(0.0, 10.0)
      base.map(_ + rng.nextGaussian() * 0.2)
    }
    val centers = KMeansLocal.fit(pts, 3)
    val expected = Seq(Array(0.0, 0.0), Array(10.0, 0.0), Array(0.0, 10.0))
    for (e <- expected) {
      val near = centers.exists(c =>
        math.abs(c(0) - e(0)) < 1.0 && math.abs(c(1) - e(1)) < 1.0)
      assert(near, s"no center near ${e.toList}: ${centers.map(_.toList).toList}")
    }
  }

  test("nearest maps each point to its own cluster") {
    val pts = Seq(Array(0.0), Array(0.1), Array(5.0), Array(5.1))
    val centers = KMeansLocal.fit(pts, 2)
    def near(x: Double) = KMeansLocal.nearest(centers, Array(x))
    assert(near(0.05) == near(0.0))
    assert(near(5.05) == near(5.0))
    assert(near(0.0) != near(5.0))
  }

  test("k larger than point count degrades gracefully") {
    assert(KMeansLocal.fit(Seq(Array(1.0), Array(2.0)), 5).length == 2)
  }

  test("deterministic across calls") {
    val pts = (0 until 100).map(i => Array((i % 7).toDouble, (i % 11).toDouble))
    val a = KMeansLocal.fit(pts, 4).map(_.toList).toList
    val b = KMeansLocal.fit(pts, 4).map(_.toList).toList
    assert(a == b)
  }

  test("rejects empty input and k=0") {
    intercept[IllegalArgumentException](KMeansLocal.fit(Nil, 2))
    intercept[IllegalArgumentException](KMeansLocal.fit(Seq(Array(1.0)), 0))
  }

  test("seeding from nearest-seed distances gives the reference fit's centers bit for bit") {
    // Few distinct points on a small integer grid: duplicates, equidistant
    // ties and k at or above the number of distinct points are common.
    val coord = Gen.frequency(3 -> Gen.choose(-2, 2).map(_.toDouble), 1 -> Gen.choose(-1.0, 1.0))
    val genCase = for {
      dim       <- Gen.choose(1, 10)
      nDistinct <- Gen.choose(1, 6)
      pool      <- Gen.listOfN(nDistinct, Gen.listOfN(dim, coord))
      picks     <- Gen.choose(1, 30).flatMap(Gen.listOfN(_, Gen.choose(0, nDistinct - 1)))
      k         <- Gen.choose(1, nDistinct + 3)
    } yield (picks.map(pool(_).toArray), k)
    for (seed <- 1 to 2000; (pts, k) <- genCase(Gen.Parameters.default, Seed(seed))) {
      val got = KMeansLocal.fit(pts, k)
      val want = KMeansLocalSpec.referenceFit(pts, k)
      val same = got.length == want.length &&
        got.indices.forall(c => java.util.Arrays.equals(got(c), want(c)))
      assert(same, s"seed $seed, k = $k, points ${pts.map(_.toList)}: " +
        s"${got.map(_.toList).toList} != ${want.map(_.toList).toList}")
    }
  }
}

object KMeansLocalSpec {

  private def sqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  /** The fit with its first seeding, which recomputed every point's distance
    * to all earlier seeds for each new seed (O(n·k²·dim)), and the same Lloyd
    * iterations.
    */
  def referenceFit(points: Seq[Array[Double]], k: Int): Array[Array[Double]] = {
    val pts  = points.toArray
    val kEff = math.min(k, pts.length)
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
    while (changed && iter < 100) {
      changed = false
      for (i <- pts.indices) {
        val best = KMeansLocal.nearest(centers, pts(i))
        if (assign(i) != best) { assign(i) = best; changed = true }
      }
      val sums   = Array.fill(centers.length)(Array.ofDim[Double](dim))
      val counts = Array.ofDim[Int](centers.length)
      for (i <- pts.indices) {
        val c = assign(i)
        for (j <- 0 until dim) sums(c)(j) += pts(i)(j)
        counts(c) += 1
      }
      for (c <- centers.indices if counts(c) > 0)
        centers(c) = sums(c).map(_ / counts(c))
      iter += 1
    }
    centers
  }
}
