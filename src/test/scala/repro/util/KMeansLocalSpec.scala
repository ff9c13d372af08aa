package repro.util

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
}
