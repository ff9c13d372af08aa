package repro.etl

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.workload.{ConfigProfile, Workload}

/** The V-ETL Transform and Load steps as Spark DataFrame transformations.
  *
  * Extract: the synthetic stream substrate emits an object-granularity
  * DataFrame (each row = one visible object in one frame). Transform: a knob
  * configuration samples frames and "detects" objects with a
  * robustness/difficulty-dependent probability — the deterministic-hash twin
  * of the CV model the paper runs. Load: detections aggregate into the
  * application-specific query format (e.g. per-segment counts) for a
  * relational engine.
  *
  * Every step is expressible in portable SQL, so results are verified
  * against DuckDB via `repro.Oracle`.
  */
object VetlPipeline {

  /** Reference capture frame rate (paper streams are 30 fps). */
  val BaseFps = 30

  /** Expand segments into per-frame, per-object rows.
    *
    * Output: (segId, frameNo ∈ [0, 30·segSec), objId, difficulty).
    * Object count per frame rises with difficulty (crowded ⇒ hard).
    */
  def objects(w: Workload, segments: DataFrame): DataFrame = {
    val framesPerSeg = (BaseFps * w.segSec).toInt
    val nObjects = (lit(1) + (col("difficulty") * 12).cast("int")) as "nObjects"
    segments
      .select(col("segId"), col("difficulty"), nObjects)
      .withColumn("frameNo", explode(sequence(lit(0), lit(framesPerSeg - 1))))
      .withColumn("objId", explode(sequence(lit(0), col("nObjects") - 1)))
      .select("segId", "frameNo", "objId", "difficulty")
  }

  /** Probability that config `p` detects an object at the given difficulty —
    * the same robustness law as the segment-level quality model.
    */
  def detectProbCol(p: ConfigProfile, difficulty: org.apache.spark.sql.Column) =
    greatest(lit(0.05), least(lit(1.0), lit(1.0) - lit(1.0 - p.rho) * difficulty))

  /** Transform: sample frames per the config's frame-rate knob, then detect
    * objects via the deterministic hash.
    *
    * @param sampleEvery process every n-th frame (30/fps for the workloads)
    */
  def transform(objectsDf: DataFrame, p: ConfigProfile, sampleEvery: Int): DataFrame = {
    val u = DetHashSql.uniformCol(col("segId"), col("objId") + lit(7L), col("frameNo"))
    objectsDf
      .where(pmod(col("frameNo"), lit(sampleEvery)) === 0)
      .where(u < detectProbCol(p, col("difficulty")))
      .select(col("segId"), col("frameNo"), col("objId"))
  }

  /** SQL twin of [[transform]]+[[loadCounts]] for the DuckDB oracle: count
    * detections per segment, over the named `objects` table.
    */
  def transformCountsSql(p: ConfigProfile, sampleEvery: Int): String = {
    val u = DetHashSql.uniformSql("segId", "objId + 7", "frameNo")
    val prob = s"GREATEST(0.05, LEAST(1.0, 1.0 - ${1.0 - p.rho} * difficulty))"
    s"""SELECT segId, COUNT(*) AS detections
       |FROM objects
       |WHERE frameNo % $sampleEvery = 0 AND $u < $prob
       |GROUP BY segId""".stripMargin
  }

  /** Load: per-segment detection counts — the "easy to query" intermediate
    * format (a Detections table a warehouse would ingest).
    */
  def loadCounts(detections: DataFrame): DataFrame =
    detections.groupBy("segId").agg(count(lit(1)) as "detections")

  /** Example downstream analytics query on the loaded format (the paper's
    * EV-count style query): detected object-frames per segment bucket.
    */
  def countsPerBucket(detections: DataFrame, segsPerBucket: Int): DataFrame =
    detections
      .groupBy(floor(col("segId") / segsPerBucket).cast("long") as "bucket")
      .agg(count(lit(1)) as "detections",
           countDistinct(col("objId")) as "objects")

  /** SQL twin of [[countsPerBucket]] over a named `detections` table. */
  def countsPerBucketSql(segsPerBucket: Int): String =
    s"""SELECT CAST(FLOOR(segId / $segsPerBucket) AS BIGINT) AS bucket,
       |       COUNT(*) AS detections,
       |       COUNT(DISTINCT objId) AS objects
       |FROM detections
       |GROUP BY 1""".stripMargin

  /** Reported per-segment quality of a Transform run: detections achieved
    * relative to the per-object maximum — the user-defined quality metric
    * the paper's API extracts "anyways" while running the job.
    */
  def reportedQuality(objectsDf: DataFrame, detections: DataFrame, sampleEvery: Int): DataFrame = {
    val possible = objectsDf
      .where(pmod(col("frameNo"), lit(sampleEvery)) === 0)
      .groupBy("segId").agg(count(lit(1)) as "possible")
    val got = detections.groupBy("segId").agg(count(lit(1)) as "got")
    possible.join(got, Seq("segId"), "left")
      .select(col("segId"),
              (coalesce(col("got"), lit(0L)).cast("double") / col("possible")) as "quality")
  }

  /** Full E2E run of the pipeline for one config over a segments DataFrame;
    * returns (detections, loaded counts, per-segment quality).
    */
  def runConfig(w: Workload, segments: DataFrame, p: ConfigProfile,
                sampleEvery: Int): (DataFrame, DataFrame, DataFrame) = {
    val objs = objects(w, segments)
    val det  = transform(objs, p, sampleEvery)
    (det, loadCounts(det), reportedQuality(objs, det, sampleEvery))
  }
}
