package repro.etl

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.workload.Covid

class VetlPipelineSpec extends SparkSpec {

  // ~20 minutes of video: 600 segments of 2 s.
  private lazy val segments = Covid.stream(spark, 1).where(col("segId") < 600).cache()
  private lazy val objs = VetlPipeline.objects(Covid, segments).cache()

  private val midCfg = Covid.profiles.sortBy(_.rho).apply(Covid.profiles.size / 2)
  private val topCfg = Covid.profiles.maxBy(_.rho)
  private val lowCfg = Covid.profiles.minBy(_.rho)

  test("objects expand to frames × objects with sane ranges") {
    val framesPerSeg = (VetlPipeline.BaseFps * Covid.segSec).toInt
    val bad = objs.where(
      col("frameNo") < 0 || col("frameNo") >= framesPerSeg || col("objId") < 0).count()
    assert(bad == 0)
    assert(objs.select("segId").distinct().count() == 600)
    // crowded (hard) segments carry more objects
    val perSeg = objs.groupBy("segId").count()
      .join(segments.select("segId", "difficulty"), "segId")
    val hard = perSeg.where(col("difficulty") > 0.6).agg(avg("count")).collect()(0).getDouble(0)
    val easy = perSeg.where(col("difficulty") < 0.2).agg(avg("count")).collect()(0).getDouble(0)
    assert(hard > easy)
  }

  test("Transform+Load matches DuckDB oracle (mid config, every 2nd frame)") {
    val det = VetlPipeline.transform(objs, midCfg, sampleEvery = 2)
    Oracle.assertEquivalent(
      VetlPipeline.loadCounts(det),
      VetlPipeline.transformCountsSql(midCfg, sampleEvery = 2),
      "objects" -> objs)
  }

  test("Transform+Load matches DuckDB oracle (cheap config, every 30th frame)") {
    val det = VetlPipeline.transform(objs, lowCfg, sampleEvery = 30)
    Oracle.assertEquivalent(
      VetlPipeline.loadCounts(det),
      VetlPipeline.transformCountsSql(lowCfg, sampleEvery = 30),
      "objects" -> objs)
  }

  test("downstream bucket query matches DuckDB oracle") {
    val det = VetlPipeline.transform(objs, midCfg, sampleEvery = 6).cache()
    Oracle.assertEquivalent(
      VetlPipeline.countsPerBucket(det, segsPerBucket = 30),
      VetlPipeline.countsPerBucketSql(segsPerBucket = 30),
      "detections" -> det)
    det.unpersist()
  }

  test("a more robust config detects more") {
    val low = VetlPipeline.transform(objs, lowCfg, sampleEvery = 6).count()
    val top = VetlPipeline.transform(objs, topCfg, sampleEvery = 6).count()
    assert(top > low, s"top=$top low=$low")
  }

  test("sampling fewer frames yields fewer detections") {
    val dense  = VetlPipeline.transform(objs, midCfg, sampleEvery = 2).count()
    val sparse = VetlPipeline.transform(objs, midCfg, sampleEvery = 30).count()
    assert(dense > sparse * 5, s"dense=$dense sparse=$sparse")
  }

  test("reported quality lies in [0,1] and tracks robustness") {
    val (_, _, qLow) = VetlPipeline.runConfig(Covid, segments, lowCfg, 6)
    val (_, _, qTop) = VetlPipeline.runConfig(Covid, segments, topCfg, 6)
    val badRange = qLow.where(col("quality") < 0 || col("quality") > 1).count()
    assert(badRange == 0)
    val mLow = qLow.agg(avg("quality")).collect()(0).getDouble(0)
    val mTop = qTop.agg(avg("quality")).collect()(0).getDouble(0)
    assert(mTop > mLow, s"top=$mTop low=$mLow")
  }

  test("reported quality is lower on difficult segments (cheap config)") {
    val (_, _, q) = VetlPipeline.runConfig(Covid, segments, lowCfg, 6)
    val j = q.join(segments.select("segId", "difficulty"), "segId")
    val hard = j.where(col("difficulty") > 0.6).agg(avg("quality")).collect()(0).getDouble(0)
    val easy = j.where(col("difficulty") < 0.2).agg(avg("quality")).collect()(0).getDouble(0)
    assert(easy > hard + 0.1, s"easy=$easy hard=$hard")
  }

  test("Transform oracle holds for the MOT workload too") {
    import repro.workload.Mot
    val motSegs = Mot.stream(spark, 1).where(col("segId") < 300)
    val motObjs = VetlPipeline.objects(Mot, motSegs)
    val cfg = Mot.profiles.maxBy(_.rho)
    val det = VetlPipeline.transform(motObjs, cfg, sampleEvery = 3)
    repro.Oracle.assertEquivalent(
      VetlPipeline.loadCounts(det),
      VetlPipeline.transformCountsSql(cfg, sampleEvery = 3),
      "objects" -> motObjs)
  }

  test("transform is deterministic") {
    val a = VetlPipeline.transform(objs, midCfg, 6).count()
    val b = VetlPipeline.transform(objs, midCfg, 6).count()
    assert(a == b)
  }
}
