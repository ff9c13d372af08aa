package repro.util

/** Deterministic integer hash → U[0,1). Its Spark Column and DuckDB SQL
  * twins are [[repro.etl.DetHashSql]].
  *
  * The V-ETL synthetic substrate needs per-(segment, frame, object)
  * pseudo-randomness that is (a) reproducible across runs, (b) identical when
  * evaluated by Catalyst and by the DuckDB oracle, and (c) free of 64-bit
  * overflow (DuckDB raises on BIGINT overflow instead of wrapping). We use a
  * small multiply-mod mix with all intermediates bounded far below 2^63.
  */
object DetHash {
  /** Modulus of the hash lattice; u = h / M ∈ [0, 1). */
  val M: Long = 1000003L // prime

  private[repro] final val A = 48271L // Lehmer multiplier
  private[repro] final val B = 16807L
  private[repro] final val C = 69621L

  /** Mix three coordinates into [0, M). Pure, overflow-safe for |x| < 2^40.
    * Uses floored modulo so negative coordinates agree with SQL `pmod`.
    */
  def mix(x: Long, y: Long, z: Long): Long = {
    def pm(v: Long): Long = ((v % M) + M) % M
    val a = pm(pm(x) * A)
    val b = pm(pm(y) * B)
    val c = pm(pm(z) * C)
    // Second scramble round so nearby coordinates decorrelate.
    val s = pm(a + b + c + 12345L)
    pm(s * A + 7L)
  }

  /** Uniform draw in [0,1) from three coordinates. */
  def uniform(x: Long, y: Long, z: Long): Double = mix(x, y, z).toDouble / M
}
