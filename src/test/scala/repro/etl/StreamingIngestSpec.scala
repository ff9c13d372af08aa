package repro.etl

import java.nio.file.{Files, Path}
import java.util.Comparator
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{Hyper, ForecastSpec, KnobPlan, Skyscraper}
import repro.workload.Covid
import scala.util.Using

/** End-to-end Structured Streaming ingestion over file-dropped segment
  * batches with per-batch knob switching.
  */
class StreamingIngestSpec extends SparkSpec {

  private lazy val hyper = Hyper(
    nCategories = 3,
    forecast = ForecastSpec(inputDays = 0.5, nSplits = 4, horizonDays = 0.5,
                            sampleEveryMin = 30),
    preSampleSize = 400)

  private lazy val (model, _, _) =
    Skyscraper.fitAndTrace(Covid, hyper, trainDays = 1, testDays = 1)

  /** A plan that prefers the top config on hard content and the cheapest on
    * easy content, so adaptation is observable.
    */
  private def mkPlan(): KnobPlan = {
    val nK = model.configs.length
    val alpha = Array.tabulate(model.cats.n, nK) { (c, k) =>
      // Pick the cheapest config within 0.05 of the category's best quality.
      val best = (0 until nK).map(model.cats.centers(c)(_)).max
      val eligible = (0 until nK).filter(model.cats.centers(c)(_) >= best - 0.05)
      if (k == eligible.minBy(model.configs(_).unitCost)) 1.0 else 0.0
    }
    KnobPlan(alpha)
  }

  /** Runs `body` in a fresh temporary directory, deleted when it returns or throws. */
  private def withTempDir(prefix: String)(body: java.io.File => Unit): Unit = {
    val dir = Files.createTempDirectory(prefix)
    try body(dir.toFile)
    finally Using.resource(Files.walk(dir))(_.sorted(Comparator.reverseOrder[Path]).forEach(Files.delete(_)))
  }

  test("streaming job ingests file batches and writes detections") {
    withTempDir("vetl-stream") { tmp =>
      val inDir = new java.io.File(tmp, "in"); inDir.mkdirs()
      val outDir = new java.io.File(tmp, "out")
      val ckDir = new java.io.File(tmp, "ck")

      // Drop 6 batch files: easy, easy, hard, hard, easy, hard (forced
      // difficulty so adaptation has something to chew on).
      val seg = Covid.stream(spark, 1).limit(40).cache()
      val easy = seg.withColumn("difficulty", lit(0.05))
      val hard = seg.withColumn("difficulty", lit(0.9))
      val batches = Seq(easy, easy, hard, hard, easy, hard)
      batches.zipWithIndex.foreach { case (b, i) =>
        b.coalesce(1).write.json(new java.io.File(inDir, s"batch$i").getAbsolutePath)
      }
      // File source needs files directly under the glob; move part files up.
      val parts = inDir.listFiles.filter(_.isDirectory).flatMap { d =>
        d.listFiles.filter(_.getName.endsWith(".json"))
      }
      parts.zipWithIndex.foreach { case (f, i) =>
        java.nio.file.Files.move(f.toPath, new java.io.File(inDir, s"b$i.json").toPath)
      }
      inDir.listFiles.filter(_.isDirectory).foreach(d => {
        d.listFiles.foreach(_.delete()); d.delete()
      })

      val ingest = new StreamingIngest(model, mkPlan())
      val q = ingest.start(spark, inDir.getAbsolutePath, outDir.getAbsolutePath,
                           ckDir.getAbsolutePath)
      try q.awaitTermination(120000) finally q.stop()

      assert(ingest.chosenLog.nonEmpty, "at least one batch processed")
      assert(ingest.chosenLog.size == 6, s"chosen=${ingest.chosenLog}")
      val out = spark.read.parquet(outDir.getAbsolutePath)
      assert(out.count() > 0)
      assert(out.columns.toSet == Set("segId", "frameNo", "objId", "cfgId"))

      // Adaptation: after observing hard batches the switcher must not keep
      // the configuration it used on the very first easy batch throughout.
      assert(ingest.chosenLog.distinct.size >= 2, s"chosen=${ingest.chosenLog}")
    }
  }

  test("reported quality feeds category switching") {
    withTempDir("vetl-batch") { tmp =>
      val ingest = new StreamingIngest(model, mkPlan())
      val seg = Covid.stream(spark, 1).limit(30).cache()
      val out = new java.io.File(tmp, "out").getAbsolutePath

      val catBefore = ingest.switcher.currentCategory
      ingest.processBatch(seg.withColumn("difficulty", lit(0.95)), out)
      val catHard = ingest.switcher.currentCategory
      ingest.processBatch(seg.withColumn("difficulty", lit(0.02)), out)
      val catEasy = ingest.switcher.currentCategory
      // Hard and easy content should not land in the same category.
      assert(catHard != catEasy || catBefore != catHard,
        s"before=$catBefore hard=$catHard easy=$catEasy")
    }
  }
}
