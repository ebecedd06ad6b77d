package repro.cql

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.TimestampType

/** The CQL baseline (Arasu, Babu, Widom 2003/2006) as described in the
  * paper's Sections 2.1.1 and 4: the comparator our streaming SQL is
  * evaluated against.
  *
  * CQL separates three operator classes:
  *   - stream-to-relation: sliding-window specifications
  *     (`[RANGE w SLIDE s]`) extract an *instantaneous relation* `R(T)`
  *     from a stream at each logical instant `T`;
  *   - relation-to-relation: ordinary SQL over each `R(T)`;
  *   - relation-to-stream: `Istream`/`Dstream`/`Rstream` re-render the
  *     sequence of instantaneous relations as a stream.
  *
  * Time is a *logical clock*: the STREAM system buffers out-of-order
  * input and feeds it to the query processor in timestamp order (the
  * paper's key criticism — Section 3.2), so here a stream is simply a
  * DataFrame with an event-timestamp column and instants advance over
  * event time. One documented convention change: windows are half-open
  * `[T-w, T)` rather than CQL's `(T-w, T]`, so that window boundaries
  * coincide with the proposal's `Tumble`/`Hop` windows in comparisons.
  */
object Cql {

  /** The logical instants of a `[RANGE w SLIDE s]` evaluation covering
    * `[from, to]`: every multiple of `s` in `(from, to + w]`, i.e. each
    * instant at which the window content may have changed.
    */
  def instants(fromMs: Long, toMs: Long, slideMs: Long): Seq[Long] = {
    val first = Math.floorDiv(fromMs, slideMs) * slideMs + slideMs
    Iterator.iterate(first)(_ + slideMs).takeWhile(_ <= toMs + slideMs).toSeq
  }

  /** Instantaneous relation at instant `T`: rows with timestamp in
    * `[T - w, T)`.
    */
  def relationAt(stream: DataFrame, tsCol: String, atMs: Long, rangeMs: Long): DataFrame =
    stream.where(
      unix_millis(col(tsCol)) >= atMs - rangeMs && unix_millis(col(tsCol)) < atMs)

  /** Evaluate `query` over the window relation at every instant and
    * stamp each result row with the instant — CQL's `Rstream` applied to
    * a windowed continuous query.
    */
  def rstream(
      spark: SparkSession,
      stream: DataFrame,
      tsCol: String,
      rangeMs: Long,
      slideMs: Long,
      query: DataFrame => DataFrame,
  ): DataFrame = {
    val span = stream.agg(
      min(unix_millis(col(tsCol))).as("lo"), max(unix_millis(col(tsCol))).as("hi")).head()
    if (span.isNullAt(0)) return emptyWithInstant(spark, query(stream.limit(0)))
    val ts = instants(span.getLong(0), span.getLong(1), slideMs)
    val parts = ts.map { t =>
      query(relationAt(stream, tsCol, t, rangeMs))
        .withColumn("cql_t", lit(new java.sql.Timestamp(t)).cast(TimestampType))
    }
    parts.reduceLeft(_.unionAll(_))
  }

  /** `Istream`: rows present at `T` but not at `T-1` (per slide step). */
  def istream(
      spark: SparkSession,
      stream: DataFrame,
      tsCol: String,
      rangeMs: Long,
      slideMs: Long,
      query: DataFrame => DataFrame,
  ): DataFrame = deltaStream(spark, stream, tsCol, rangeMs, slideMs, query, inserted = true)

  /** `Dstream`: rows present at `T-1` but not at `T`. */
  def dstream(
      spark: SparkSession,
      stream: DataFrame,
      tsCol: String,
      rangeMs: Long,
      slideMs: Long,
      query: DataFrame => DataFrame,
  ): DataFrame = deltaStream(spark, stream, tsCol, rangeMs, slideMs, query, inserted = false)

  private def deltaStream(
      spark: SparkSession,
      stream: DataFrame,
      tsCol: String,
      rangeMs: Long,
      slideMs: Long,
      query: DataFrame => DataFrame,
      inserted: Boolean,
  ): DataFrame = {
    val span = stream.agg(
      min(unix_millis(col(tsCol))).as("lo"), max(unix_millis(col(tsCol))).as("hi")).head()
    if (span.isNullAt(0)) return emptyWithInstant(spark, query(stream.limit(0)))
    val ts = instants(span.getLong(0), span.getLong(1), slideMs)
    val parts = ts.map { t =>
      val cur  = query(relationAt(stream, tsCol, t, rangeMs))
      val prev = query(relationAt(stream, tsCol, t - slideMs, rangeMs))
      val delta = if (inserted) cur.exceptAll(prev) else prev.exceptAll(cur)
      delta.withColumn("cql_t", lit(new java.sql.Timestamp(t)).cast(TimestampType))
    }
    parts.reduceLeft(_.unionAll(_))
  }

  private def emptyWithInstant(spark: SparkSession, shaped: DataFrame): DataFrame =
    shaped.withColumn("cql_t", lit(null).cast(TimestampType)).limit(0)

  /** The STREAM system's heartbeat buffering (Section 3.2): an event with
    * arrival time `ptime` and timestamp `ts` is *presented* to the
    * logical clock only once arrival time reaches `ts + slack`; events
    * whose arrival skew exceeds `slack` would be presented late and are
    * dropped. Returns `(presented, droppedCount)`.
    */
  def heartbeatBuffer(
      stream: DataFrame,
      tsCol: String,
      ptimeCol: String,
      slackMs: Long,
  ): (DataFrame, Long) = {
    val skew    = unix_millis(col(ptimeCol).cast(TimestampType)) -
      unix_millis(col(tsCol).cast(TimestampType))
    val keep    = stream.where(skew <= slackMs)
    val dropped = stream.count() - keep.count()
    (keep, dropped)
  }
}
