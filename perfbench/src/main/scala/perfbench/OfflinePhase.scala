package perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core._
import repro.workload.Workload

/** What one offline fit produces: the model plus both traces. */
final case class Fitted(model: SkyscraperModel, train: SegmentTrace, test: SegmentTrace) {
  /** Digest of K, the traces, the categories and the fitted estimates. */
  lazy val digest: String = {
    val d = new Digest
    model.configs.foreach(c => d.long(c.id.toLong))
    for (t <- Seq(train, test)) {
      d.ints(t.day).ints(t.regime).doubles(t.difficulty).doubles(t.load)
        .matrix(t.qual).matrix(t.cost).matrix(t.report)
    }
    d.ints(model.trainCats).matrix(model.costHat).matrix(model.qualHat)
    d.doubles(model.forecaster.predict(model.trainCats, model.trainCats.length))
    d.hex
  }
  def segments: Int = train.nSegments + test.nSegments
}

/** The `offline` layer: Skyscraper's offline phase on workload `w`, at the
  * scale `Experiments.hyperFor` / `trainDaysFor` / `testDaysFor` give.
  */
final class OfflinePhase(spark: SparkSession, w: Workload, val hyper: Hyper, val trainDays: Int,
                         val testDays: Int) {

  /** The untraced fit: one call to the public entry point. */
  def fit(): Fitted = {
    val (m, tr, te) = Skyscraper.fitAndTrace(spark, w, hyper, trainDays, testDays)
    Fitted(m, tr, te)
  }

  /** The same public steps `fitAndTrace` and `fitFromTrace` compose, in the
    * same order, each in a span.
    */
  def fitTraced(t: Tracer): Fitted = t.span("offline.fit") {
    val pre = t.span("offline.presample")(
      Skyscraper.preSample(spark, w, trainDays, hyper.preSampleSize, hyper.seed))
    val k = t.span("pareto.filter")(
      Pareto.filterConfigs(w, pre, hyper.nSearch, hyper.maxK))
    val full = t.span("quality_matrix.trace")(
      QualityMatrix.trace(spark, w, trainDays + testDays, k, hyper.seed))
    val split = full.dayStart(trainDays)
    val train = full.slice(0, split)
    val test  = full.slice(split, full.nSegments)
    val model = t.span("offline.fit_from_trace") {
      val cats = t.span("categories.fit")(
        ContentCategories.fit(train, hyper.nCategories, hyper.categorySampleFrac, hyper.seed))
      val trainCats = t.span("categories.assign")(ContentCategories.assignOnline(cats, train))
      val (costHat, qualHat) = t.span("offline.mean_by_category")((
        Skyscraper.meanByCategory(train.cost, trainCats, cats.n, train),
        Skyscraper.meanByCategory(train.qual, trainCats, cats.n, train)))
      val forecaster = t.span("forecaster.fit") {
        val f = new Forecaster(hyper.forecast, cats.n, train.segSec, hyper.seed)
        f.fit(trainCats)
        f
      }
      SkyscraperModel(w, k, cats, forecaster, trainCats, costHat, qualHat, hyper)
    }
    Fitted(model, train, test)
  }

  /** The `video` layer alone: synthesize and scan every segment of the
    * train+test stream once. Returns a checksum of the scanned columns.
    */
  def scanVideo(): Double =
    w.stream(spark, trainDays + testDays, hyper.seed)
      .agg(sum(col("difficulty")) + sum(col("load")) + sum(col("regime")) + count(lit(1)))
      .collect()(0).getDouble(0)
}
