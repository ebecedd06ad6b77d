package repro.engine

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.core.{EmitSpec, EmitStateMachine}
import repro.core.expressions.WindowExpressions
import repro.tvr.WatermarkTimeline

/** Exact, set-based analyses of a recorded out-of-order stream.
  *
  * These compute, with set-based queries (plus the evaluator's EMIT state
  * machine run per window for AFTER DELAY), the quantities the
  * benchmarks report: how many changelog rows each EMIT policy
  * materializes (B1), the emission latency of watermarking (B3), and the
  * correctness of arrival-order processing under disorder (B4). All are
  * deterministic functions of the recorded
  * `(bidtime, price, item, ptime)` log, windowed by tumbling windows of
  * `windowMs`, with the Q7 aggregate (top bid per window).
  */
object StreamAnalytics {

  /** Tumble `events` by bidtime: adds epoch-millisecond `wstart`/`wend`. */
  private def windowed(events: DataFrame, windowMs: Long): DataFrame = {
    val (wstart, wend) = WindowExpressions.tumble(events.sparkSession, col("bidtime"), windowMs)
    events
      .withColumn("wstart", unix_millis(wstart))
      .withColumn("wend", unix_millis(wend))
  }

  /** The *change events* of the per-window running top bid, in arrival
    * order: the rows that strictly raise the window's max price. Under
    * instantaneous materialization each one produces an update (an
    * insert, plus an undo of the previous top if any).
    * Output: (wstart, wend, ptime, changeIdx).
    */
  def topChanges(events: DataFrame, windowMs: Long): DataFrame = {
    val w = Window
      .partitionBy("wstart")
      .orderBy(col("ptime"), col("bidtime"), col("price"))
      .rowsBetween(Window.unboundedPreceding, -1)
    windowed(events, windowMs)
      .withColumn("__prevMax", max(col("price")).over(w))
      .where(col("__prevMax").isNull || col("price") > col("__prevMax"))
      .withColumn("changeIdx",
        row_number().over(Window.partitionBy("wstart").orderBy(col("ptime"), col("bidtime"))) - 1)
      .select(col("wstart"), col("wend"), unix_millis(col("ptime")).as("ptime"), col("changeIdx"))
  }

  /** Changelog volume under instantaneous (continuous) materialization:
    * each change emits 1 insert + 1 undo, except a window's first change.
    */
  def continuousEmissions(events: DataFrame, windowMs: Long): Long = {
    val ch      = topChanges(events, windowMs).persist()
    val changes = ch.count()
    val windows = ch.select("wstart").distinct().count()
    ch.unpersist()
    2 * changes - windows
  }

  /** Changelog volume under `EMIT STREAM AFTER DELAY d` (Extension 6):
    * each window's change log runs through the evaluator's
    * [[EmitStateMachine]], one tick per change ptime whose snapshot is
    * the window's latest change, until every timer has fired.
    */
  def delayEmissions(events: DataFrame, windowMs: Long, delayMs: Long): Long = {
    val perWindow = topChanges(events, windowMs)
      .select("wstart", "ptime", "changeIdx")
      .collect()
      .groupBy(_.getLong(0))
    val emit = EmitSpec(stream = true, delayMs = Some(delayMs))
    perWindow.valuesIterator.map { changes =>
      val m = new EmitStateMachine(emit, keyOf = _ => Nil, complete = (_, _) => false)
      changes.groupMapReduce(_.getLong(1))(_.getInt(2))(math.max).toSeq.sorted
        .foreach { case (p, idx) => m.tick(p, Seq(Seq(idx))) }
      m.finish(Long.MaxValue)
      m.changelog.size.toLong
    }.sum
  }

  /** Changelog volume under `EMIT STREAM AFTER WATERMARK` (Extension 5):
    * one final row per window.
    */
  def watermarkEmissions(events: DataFrame, windowMs: Long): Long =
    windowed(events, windowMs).select("wstart").distinct().count()

  // ------------------------------------------------------------------
  // B3: emission latency of watermark finalization
  // ------------------------------------------------------------------

  /** Per-window emission delay (emission ptime - wend, ms) when windows
    * are finalized by a watermark timeline. Returns (meanDelayMs, windows
    * never finalized).
    */
  def watermarkLatency(events: DataFrame, windowMs: Long, wm: WatermarkTimeline): (Double, Long) = {
    val wends = windowed(events, windowMs).select("wend").distinct()
      .collect().map(_.getLong(0)).toSeq
    val delays = wends.map(we => wm.firstPtimeAtOrAbove(we).map(_ - we))
    val ok     = delays.flatten
    val mean   = if (ok.isEmpty) Double.NaN else ok.sum.toDouble / ok.size
    (mean, delays.count(_.isEmpty).toLong)
  }

  // ------------------------------------------------------------------
  // B4: correctness under disorder
  // ------------------------------------------------------------------

  /** Ground truth: the top price per event-time window over all data. */
  def truthTops(events: DataFrame, windowMs: Long): DataFrame =
    windowed(events, windowMs)
      .groupBy("wstart")
      .agg(max(struct(col("price"), col("bidtime"), col("item"))).as("top"))

  /** Fraction of event-time windows whose final reported top bid is
    * correct under three processing disciplines:
    *   1.0 for watermark-based event-time processing (by construction);
    *   `arrivalOrderCorrectness` for in-order-assumption finalization;
    *   `procTimeCorrectness` for processing-time windowing.
    */
  def arrivalOrderCorrectness(events: DataFrame, windowMs: Long): Double = {
    // In-order assumption: a window is finalized the moment an event of a
    // *later* window arrives; events for it arriving afterwards are lost.
    val we = windowed(events, windowMs).persist()
    val finalizeAt = we
      .groupBy(col("wend").as("fwend"))
      .agg(min(unix_millis(col("ptime"))).as("anyArrival"))
      .select(col("fwend"), col("anyArrival"))
    // first arrival of any event whose window starts at or after this wend
    val closing = we.as("e")
      .join(finalizeAt.as("f"), col("e.wstart") >= col("f.fwend"))
      .groupBy(col("f.fwend").as("wend2"))
      .agg(min(unix_millis(col("e.ptime"))).as("closeP"))
    val kept = we.as("e2")
      .join(closing.as("c"), col("e2.wend") === col("c.wend2"), "left")
      .where(col("c.closeP").isNull || unix_millis(col("e2.ptime")) < col("c.closeP"))
      .groupBy(col("e2.wstart").as("wstart"))
      .agg(max(struct(col("e2.price"), col("e2.bidtime"), col("e2.item"))).as("top"))
    val truth = truthTops(we, windowMs).withColumnRenamed("top", "truthTop")
      .withColumnRenamed("wstart", "twstart")
    val matches = kept
      .join(truth, col("wstart") === col("twstart"))
      .where(col("top") === col("truthTop"))
      .count()
    val total = truth.count()
    we.unpersist()
    matches.toDouble / math.max(1L, total)
  }

  /** Processing-time windowing: windows are intervals of *arrival* time;
    * correctness = fraction of event-time windows whose top bid is
    * reproduced by the processing-time window with the same index.
    */
  def procTimeCorrectness(events: DataFrame, windowMs: Long): Double = {
    val truth = truthTops(events, windowMs)
      .select(col("wstart"), col("top"))
    val (procWstart, _) = WindowExpressions.tumble(events.sparkSession, col("ptime"), windowMs)
    val proc = events
      .withColumn("wstart", unix_millis(procWstart))
      .groupBy("wstart")
      .agg(max(struct(col("price"), col("bidtime"), col("item"))).as("ptop"))
    val matches = truth.join(proc, Seq("wstart")).where(col("top") === col("ptop")).count()
    matches.toDouble / math.max(1L, truth.count())
  }
}
