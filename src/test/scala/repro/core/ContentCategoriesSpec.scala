package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.util.KMeansLocal
import repro.workload.Covid

class ContentCategoriesSpec extends AnyFunSuite {

  private lazy val segs = QualityMatrix.segments(Covid, 2, seed = 7)
  private lazy val configs =
    Pareto.filterConfigs(Covid, Skyscraper.preSample(Covid, segs, 1, 500), maxK = 10)
  private lazy val trace = QualityMatrix.trace(Covid, segs, configs)
  private lazy val cats  = ContentCategories.fit(trace, nCategories = 3)

  test("fit produces the requested number of categories") {
    assert(cats.n == 3)
    assert(cats.centers.forall(_.length == configs.length))
  }

  test("a negative seed picks the sample offset seed mod stride") {
    // sampleFrac 0.05 is a stride of 20: seed -1 samples from offset 19, as 19 does.
    val neg = ContentCategories.fit(trace, nCategories = 3, sampleFrac = 0.05, seed = -1)
    val pos = ContentCategories.fit(trace, nCategories = 3, sampleFrac = 0.05, seed = 19)
    assert(neg.centers.map(_.toSeq).toSeq == pos.centers.map(_.toSeq).toSeq)
    assert(neg.discriminatorDim == pos.discriminatorDim)
  }

  test("cluster centers are valid qualities") {
    for (c <- 0 until cats.n; k <- configs.indices)
      assert(cats.centers(c)(k) >= 0 && cats.centers(c)(k) <= 1)
  }

  test("categories order configs consistently: hard categories hurt cheap configs") {
    // In every category, the most robust config's expected quality is at
    // least the cheapest config's.
    val cheapIdx = configs.indices.minBy(configs(_).unitCost)
    val topIdx   = configs.indices.maxBy(configs(_).rho)
    for (c <- 0 until cats.n)
      assert(cats.centers(c)(topIdx) >= cats.centers(c)(cheapIdx) - 0.05,
        s"cat $c: top=${cats.centers(c)(topIdx)} cheap=${cats.centers(c)(cheapIdx)}")
  }

  test("categories separate content hardness") {
    // The categories' mean qualities (averaged over configs) must differ —
    // otherwise clustering found nothing.
    val means = (0 until cats.n).map(c => configs.indices.map(cats.centers(c)(_)).sum / configs.length)
    assert(means.max - means.min > 0.1, s"means=$means")
  }

  test("classifyFull assigns each center to itself") {
    for (c <- 0 until cats.n)
      assert(cats.classifyFull(cats.centers(c)) == c)
  }

  test("classifyOnline discriminates along one dimension") {
    val pts = Seq(Array(0.0, 100.0), Array(0.1, 100.0), Array(5.0, 100.0), Array(5.1, 100.0))
    val two = ContentCategories(KMeansLocal.fit(pts, 2), 0)
    // Along dim 0 the clusters differ; dim-0-only classification must agree
    // with the full classification.
    assert(two.classifyOnline(0, 0.05) == two.classifyFull(Array(0.05, 100.0)))
    assert(two.classifyOnline(0, 5.05) == two.classifyFull(Array(5.05, 100.0)))
    assert(two.classifyOnline(0, 0.05) != two.classifyOnline(0, 5.05))
    // Equidistant centers: the tie goes to the lowest index.
    assert(ContentCategories(Array(Array(1.0), Array(0.0)), 0).classifyOnline(0, 0.5) == 0)
  }

  test("online (single-dim) classification mostly agrees with full classification") {
    val full   = ContentCategories.assignFull(cats, trace)
    val online = ContentCategories.assignOnline(cats, trace)
    val agree = full.zip(online).count { case (a, b) => a == b }.toDouble / full.length
    assert(agree > 0.8, s"agreement=$agree")
  }

  test("discriminator dim has spread centers") {
    val dim = cats.discriminatorDim
    val vals = (0 until cats.n).map(cats.centers(_)(dim)).sorted
    assert(vals.last - vals.head > 0.05)
  }

  test("the discriminator is the first dimension spread enough, even a later one") {
    // Only dimension 2 separates the centers.
    assert(ContentCategories.discriminatorDim(
      Array(Array(0.5, 0.2, 0.0), Array(0.5, 0.2, 1.0))) == 2)
    // Dimension 1 is the first whose spread (0.3) reaches a quarter of the
    // largest (dimension 2's, 1.0).
    assert(ContentCategories.discriminatorDim(
      Array(Array(0.5, 0.0, 0.0), Array(0.5, 0.3, 1.0), Array(0.5, 0.6, 2.0))) == 1)
  }

  test("assignments cover multiple categories") {
    val online = ContentCategories.assignOnline(cats, trace)
    assert(online.distinct.length >= 2)
  }

  test("fit is deterministic") {
    val a = ContentCategories.fit(trace, 3).centers.map(_.toList).toList
    val b = ContentCategories.fit(trace, 3).centers.map(_.toList).toList
    assert(a == b)
  }

  test("a trace with no segment at the sample offset fails early, naming why") {
    // sampleFrac 0.05 is a stride of 20; seed 7 samples segments 7, 27, …
    val e = intercept[IllegalArgumentException](
      ContentCategories.fit(trace.slice(0, 7), nCategories = 3, sampleFrac = 0.05, seed = 7))
    for (part <- Seq("7 segments", "offset 7", "stride 20"))
      assert(e.getMessage.contains(part), e.getMessage)
    assert(ContentCategories.fit(trace.slice(0, 8), nCategories = 3, sampleFrac = 0.05, seed = 7).n == 1)
  }

  test("assignOnline and assignFull classify each segment in order") {
    val dim = cats.discriminatorDim
    assert(ContentCategories.assignOnline(cats, trace).toSeq ==
      (0 until trace.nSegments).map(i => cats.classifyOnline(dim, trace.report(i, dim))))
    assert(ContentCategories.assignFull(cats, trace).toSeq ==
      (0 until trace.nSegments).map(i => cats.classifyFull(trace.reportRow(i))))
  }
}
