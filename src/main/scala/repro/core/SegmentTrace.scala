package repro.core

import repro.workload.{ConfigProfile, Workload}

/** Driver-side columnar view of a stream's segments with the per-(segment,
  * config) quality, cost and report channels.
  *
  * All control-loop components (offline fit, planner, switcher, simulator,
  * baselines) consume this through the cell accessors `qual(i, k)`,
  * `cost(i, k)` and `report(i, k)`, and the segment accessors `dayOf(i)`,
  * `regimeOf(i)` and `loadOf(i)`. Every trace reads its segments from the
  * stream's columns `segs`, which store only what the content law cannot
  * derive: the difficulty and a 1-byte regime (9 B per segment), and the load
  * only where the stream has a load model; the day is the law's function of
  * the segment id. A trace built by [[QualityMatrix]] is a [[LawTrace]]: it
  * evaluates the weight and each cell from the workload's scalar law on
  * read, so every value equals `SynthLaw`'s and
  * `Workload.quality`/`reported`/`costPerSec`'s bit for bit. `qual(i, k)` is
  * `weight(i) * report(i, k)` in every trace, the same product the law
  * defines (`Workload.quality`).
  *
  * `weight`, `report` and `cost` are the one seam: the stored-cells factory
  * `SegmentTrace(…)` builds a trace from given cells (hand-built traces in
  * tests), and the offline fit reads a working copy of the train report
  * through the same class.
  *
  * Every array is read-only: `slice` copies, but the fit's working copy
  * shares its base trace's columns.
  *
  * @param segs    the stream's columns; the difficulty and the regime are
  *                ground truth, used only for evaluation — never by the
  *                system itself
  * @param configs the knob configurations the channels are computed for
  */
abstract class SegmentTrace(val segs: QualityMatrix.Segments, val configs: Vector[ConfigProfile]) {
  protected[this] final val nK = configs.length

  /** Segment length in seconds. */
  def segSec: Double = segs.segSec
  /** Latent difficulty per segment. */
  def difficulty: Array[Double] = segs.difficulty
  def nSegments: Int = segs.n
  def nConfigs: Int  = nK

  /** Day index of segment i; non-decreasing in i. */
  final def dayOf(i: Int): Int = segs.dayOf(i)
  /** Latent content regime of segment i. */
  final def regimeOf(i: Int): Int = segs.regimeOf(i)
  /** Concurrent streams in segment i. */
  final def loadOf(i: Int): Double = segs.loadOf(i)

  /** weight(i): segment i's quality mass, `qualityWeight(difficulty(i))`. */
  def weight(i: Int): Double

  /** The reported quality of configs(k) on segment i: the certainty metric
    * the user code reports while processing it — the switcher's only signal.
    */
  def report(i: Int, k: Int): Double

  /** core·s to process segment i with configs(k). */
  def cost(i: Int, k: Int): Double

  /** Sub-trace covering segments [from, until). */
  def slice(from: Int, until: Int): SegmentTrace

  /** The application quality of configs(k) on segment i. */
  final def qual(i: Int, k: Int): Double = weight(i) * report(i, k)

  /** A copy of segment i's report vector over all configs. */
  def reportRow(i: Int): Array[Double] = row(i, report(_, _))

  // Index loops: a generic Array.tabulate would box each cell.
  private def row(i: Int, cell: (Int, Int) => Double): Array[Double] = {
    val r = new Array[Double](nK)
    var k = 0
    while (k < nK) { r(k) = cell(i, k); k += 1 }
    r
  }

  private def channel(cell: (Int, Int) => Double): Array[Array[Double]] = {
    val m = new Array[Array[Double]](nSegments)
    var i = 0
    while (i < nSegments) { m(i) = row(i, cell); i += 1 }
    m
  }

  @deprecated("an O(n·K) copy of the channel; read cells with qual(i, k)", "0.1.0")
  def qual: Array[Array[Double]] = channel(qual(_, _))

  @deprecated("an O(n·K) copy of the channel; read cells with cost(i, k)", "0.1.0")
  def cost: Array[Array[Double]] = channel(cost(_, _))

  @deprecated("an O(n·K) copy of the channel; read cells with report(i, k)", "0.1.0")
  def report: Array[Array[Double]] = channel(report(_, _))

  @deprecated("an O(n) copy of the column; read segment i with dayOf(i)", "0.1.0")
  def day: Array[Int] = {
    val c = new Array[Int](nSegments); java.util.Arrays.setAll(c, dayOf(_)); c
  }

  @deprecated("an O(n) copy of the column; read segment i with regimeOf(i)", "0.1.0")
  def regime: Array[Int] = {
    val c = new Array[Int](nSegments); java.util.Arrays.setAll(c, regimeOf(_)); c
  }

  @deprecated("an O(n) copy of the column; read segment i with loadOf(i)", "0.1.0")
  def load: Array[Double] = {
    val c = new Array[Double](nSegments); java.util.Arrays.setAll(c, loadOf(_)); c
  }

  /** Index of the first segment of day `dayIdx` or later: a binary search
    * over `dayOf`.
    */
  def dayStart(dayIdx: Int): Int = {
    var lo = 0
    var hi = nSegments
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (dayOf(mid) < dayIdx) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Total quality achievable by the per-segment best config (normalizer). */
  lazy val maxTotalQuality: Double = bestTotal()

  // A plain method, not the lazy val's body: C2 cannot compile the lazy val's
  // synchronized initializer on stack replacement ("OSR starts with non-empty
  // stack"), so a trace's first call would run the whole loop uncompiled.
  private def bestTotal(): Double = {
    var s = 0.0
    var i = 0
    while (i < nSegments) {
      var best = qual(i, 0)
      var k = 1
      while (k < nK) { best = math.max(best, qual(i, k)); k += 1 }
      s += best
      i += 1
    }
    s
  }
}

object SegmentTrace {

  /** A trace with stored cells: `reportCells(s·K + k)` is the report of
    * configs(k) on segment s, and `costRows(s)(k)` its core·s. Segment s's
    * day is the law's day of segment id s. Hand-built traces in tests
    * substitute their cells and weights through this factory.
    */
  def apply(segSec: Double, regime: Array[Byte], difficulty: Array[Double],
            load: Array[Double], configs: Vector[ConfigProfile], weight: Array[Double],
            reportCells: Array[Double], costRows: Array[Array[Double]]): SegmentTrace = {
    require(costRows.length == difficulty.length && costRows.forall(_.length == configs.length),
      s"SegmentTrace: ${difficulty.length} segments × ${configs.length} configs need as many cost rows")
    new Stored(QualityMatrix.Segments(0L, segSec, regime, difficulty, Some(load)), configs,
               weight, reportCells, (i, k) => costRows(i)(k))
  }

  /** `t` with its weights and report read from a working copy of every
    * weight and report cell, filled once by a parallel loop over segments
    * (one task writes each segment's cells): for a pass that reads each
    * cell. It shares `t`'s columns and reads `t`'s costs.
    */
  private[core] def withReportCopy(t: SegmentTrace): SegmentTrace = {
    val nK = t.nConfigs
    val weights = new Array[Double](t.nSegments)
    val cells = new Array[Double](t.nSegments * nK)
    java.util.stream.IntStream.range(0, t.nSegments).parallel().forEach { i =>
      weights(i) = t.weight(i)
      var k = 0
      while (k < nK) { cells(i * nK + k) = t.report(i, k); k += 1 }
    }
    new Stored(t.segs, t.configs, weights, cells, t.cost(_, _))
  }

  private final class Stored(
      segs: QualityMatrix.Segments, configs: Vector[ConfigProfile], weights: Array[Double],
      reportCells: Array[Double], costOf: (Int, Int) => Double,
  ) extends SegmentTrace(segs, configs) {
    require(weights.length == nSegments && reportCells.length == nSegments * nK,
      s"SegmentTrace: need $nSegments weights and ${nSegments * nK} report cells")

    def weight(i: Int): Double = weights(i)
    def report(i: Int, k: Int): Double = reportCells(i * nK + k)
    def cost(i: Int, k: Int): Double = costOf(i, k)

    def slice(from: Int, until: Int): SegmentTrace =
      new Stored(segs.slice(from, until), configs, weights.slice(from, until),
        reportCells.slice(from * nK, until * nK), (i, k) => costOf(from + i, k))
  }
}

/** A trace whose cells are workload `w`'s law, evaluated on read. Besides
  * the stream's columns it stores only `dPow` when `sevPow` ≠ 1, so a report
  * read costs one `exp` and one hash but no `pow`:
  *
  * {{{
  *   weight(i)    = w.qualityWeight(difficulty(i))
  *   report(i, k) = w.reportedCell(configs(k), first + i, ρ·affinity(regimeOf(i)), dPow(i), loadOf(i))
  *   cost(i, k)   = w.costPerSec(configs(k), loadOf(i)) · segSec
  * }}}
  *
  * A COVID or MOT trace thus keeps 9 B per segment.
  *
  * @param dPow dPow(s) = `StrictMath.pow(difficulty(s), w.sevPow)`: the
  *             `difficulty` array itself when `sevPow` is 1 (the power is
  *             then `d` bit for bit), a computed array otherwise
  */
final class LawTrace private[core] (
    w: Workload,
    segs: QualityMatrix.Segments,
    configs: Vector[ConfigProfile],
    val dPow: Array[Double],
) extends SegmentTrace(segs, configs) {
  require(dPow.length == nSegments, s"LawTrace: $nSegments segments need as many dPow")

  private[this] val profiles = configs.toArray
  private[this] val rhoEff = w.rhoEff(profiles)
  private[this] val sec = w.segSec

  /** The stream's segment id of segment 0: the day and the report noise key
    * on it, and `slice(from, …)` adds `from`.
    */
  def first: Long = segs.first

  def weight(i: Int): Double = w.qualityWeight(difficulty(i))

  def report(i: Int, k: Int): Double =
    w.reportedCell(profiles(k), first + i, rhoEff(regimeOf(i))(k), dPow(i), loadOf(i))

  def cost(i: Int, k: Int): Double = w.costPerSec(profiles(k), loadOf(i)) * sec

  def slice(from: Int, until: Int): LawTrace = {
    val s = segs.slice(from, until)
    new LawTrace(w, s, configs, if (dPow eq difficulty) s.difficulty else dPow.slice(from, until))
  }
}
