package repro.core

import repro.SparkSpec
import repro.workload.Covid

class ContentCategoriesSpec extends SparkSpec {

  private lazy val configs = {
    val pre = Skyscraper.preSample(spark, Covid, 1, 500, seed = 7)
    Pareto.filterConfigs(Covid, pre)
  }
  private lazy val trace = QualityMatrix.trace(spark, Covid, 2, configs)
  private lazy val cats  = ContentCategories.fit(trace, nCategories = 3)

  test("fit produces the requested number of categories") {
    assert(cats.n == 3)
    assert(cats.model.centers.forall(_.length == configs.length))
  }

  test("a negative seed picks the sample offset seed mod stride") {
    // sampleFrac 0.05 is a stride of 20: seed -1 samples from offset 19, as 19 does.
    val neg = ContentCategories.fit(trace, nCategories = 3, sampleFrac = 0.05, seed = -1)
    val pos = ContentCategories.fit(trace, nCategories = 3, sampleFrac = 0.05, seed = 19)
    assert(neg.model.centers.map(_.toSeq).toSeq == pos.model.centers.map(_.toSeq).toSeq)
    assert(neg.discriminatorDim == pos.discriminatorDim)
  }

  test("cluster centers are valid qualities") {
    for (c <- 0 until cats.n; k <- configs.indices)
      assert(cats.center(c, k) >= 0 && cats.center(c, k) <= 1)
  }

  test("categories order configs consistently: hard categories hurt cheap configs") {
    // In every category, the most robust config's expected quality is at
    // least the cheapest config's.
    val cheapIdx = configs.indices.minBy(configs(_).unitCost)
    val topIdx   = configs.indices.maxBy(configs(_).rho)
    for (c <- 0 until cats.n)
      assert(cats.center(c, topIdx) >= cats.center(c, cheapIdx) - 0.05,
        s"cat $c: top=${cats.center(c, topIdx)} cheap=${cats.center(c, cheapIdx)}")
  }

  test("categories separate content hardness") {
    // The categories' mean qualities (averaged over configs) must differ —
    // otherwise clustering found nothing.
    val means = (0 until cats.n).map(c => configs.indices.map(cats.center(c, _)).sum / configs.length)
    assert(means.max - means.min > 0.1, s"means=$means")
  }

  test("classifyFull assigns each center to itself") {
    for (c <- 0 until cats.n)
      assert(cats.classifyFull(cats.model.centers(c)) == c)
  }

  test("online (single-dim) classification mostly agrees with full classification") {
    val full   = ContentCategories.assignFull(cats, trace)
    val online = ContentCategories.assignOnline(cats, trace)
    val agree = full.zip(online).count { case (a, b) => a == b }.toDouble / full.length
    assert(agree > 0.8, s"agreement=$agree")
  }

  test("discriminator dim has spread centers") {
    val dim = cats.discriminatorDim
    val vals = (0 until cats.n).map(cats.center(_, dim)).sorted
    assert(vals.last - vals.head > 0.05)
  }

  test("assignments cover multiple categories") {
    val online = ContentCategories.assignOnline(cats, trace)
    assert(online.distinct.length >= 2)
  }

  test("fit is deterministic") {
    val a = ContentCategories.fit(trace, 3).model.centers.map(_.toList).toList
    val b = ContentCategories.fit(trace, 3).model.centers.map(_.toList).toList
    assert(a == b)
  }
}
