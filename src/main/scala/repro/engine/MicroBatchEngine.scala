package repro.engine

import java.sql.Timestamp

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

import repro.core.expressions.WindowExpressions

/** Emission policy of the incremental engine — the engine-level analogue
  * of the EMIT modifiers (Extensions 4–6).
  */
sealed trait EngineMode
object EngineMode {
  /** Materialize every change as it happens (default changelog). */
  case object Continuous extends EngineMode
  /** Materialize a window once, when the watermark passes its end;
    * drop later (late) inputs; GC state for closed windows.
    */
  case object AfterWatermark extends EngineMode
}

final case class BatchMetric(
    batch: Int,
    wmMs: Long,
    arrivedRows: Long,     // cumulative input rows seen
    retainedRows: Long,    // input rows a general operator must keep
    stateWindows: Long,    // per-window aggregate state entries held
    emitted: Long,         // changelog rows emitted this batch
    dropped: Long,         // late rows dropped this batch
)

final case class EngineResult(
    finalOutput: DataFrame, // (wstart, wend, bidtime, price, item)
    perBatch: Seq[BatchMetric],
    totalEmitted: Long,
    maxStateWindows: Long,
    maxRetainedRows: Long,
    totalDropped: Long,
)

/** A deterministic micro-batch execution engine for windowed aggregation
  * over an out-of-order stream — the scalable counterpart of the
  * reference evaluator in [[repro.core.StreamSqlSession]] and our analog
  * of a Structured-Streaming/Flink runtime (Appendix B.2.3): watermarks
  * decide completeness, state for closed windows is garbage-collected,
  * and late rows are dropped.
  *
  * The aggregation is NEXMark Q7's: top bid (price, bidtime, item) per
  * tumbling event-time window. The input is split into `numBatches`
  * arrival-ordered micro-batches; after each batch the *perfect*
  * watermark (min event time of everything not yet arrived) advances.
  *
  * As in Structured Streaming, partial aggregates are computed where the
  * rows are — one Spark query yields every (batch, window) top — and the
  * small per-window state (top bid and input row count) is merged on the
  * driver, batch by batch.
  */
final class MicroBatchEngine(spark: SparkSession) {
  import MicroBatchEngine._

  /** Run over `events` (columns bidtime, price, item, ptime; price integral). */
  def run(events: DataFrame, windowMs: Long, numBatches: Int, mode: EngineMode): EngineResult = {
    val (wstart, wend) = WindowExpressions.tumble(spark, col("bidtime"), windowMs)
    val partials = events
      .withColumn("__batch", ntile(numBatches).over(Window.orderBy(col("ptime"), col("bidtime"))) - 1)
      .groupBy(col("__batch"), wstart.as("wstart"), wend.as("wend"))
      .agg(
        max(struct(col("price").cast(LongType).as("price"), col("bidtime"), col("item"))).as("top"),
        count(lit(1)).as("rows"),
        min(unix_millis(col("bidtime"))).as("minMs"))
      .select("__batch", "minMs", "wstart", "wend", "top.bidtime", "top.price", "top.item", "rows")
      .collect()
      .map(r => Partial(r.getInt(0), r.getLong(1), WindowTop(r.getTimestamp(2), r.getTimestamp(3),
        r.getTimestamp(4), r.getLong(5), r.getString(6), r.getLong(7))))
      .groupBy(_.batch)
      .withDefaultValue(Array.empty[Partial])

    // Perfect watermark after batch b: (min bidtime of later batches) - 1.
    val wmAfter = (0 until numBatches)
      .scanRight(Long.MaxValue / 2)((b, later) => partials(b).map(_.minMs).foldLeft(later)(math.min))
      .tail.map(_ - 1)

    val state   = mutable.LinkedHashMap.empty[Timestamp, WindowTop] // keyed by wstart
    val closed  = Vector.newBuilder[WindowTop]
    var arrived = 0L
    var wmPrev  = Long.MinValue
    val perBatch = (0 until numBatches).map { b =>
      val batch = partials(b).map(_.window)
      arrived += batch.map(_.rows).sum
      // Extension 2: inputs for already-complete groups are dropped.
      val (live, late) = mode match {
        case EngineMode.AfterWatermark => batch.partition(_.wend.getTime > wmPrev)
        case EngineMode.Continuous     => (batch, Array.empty[WindowTop])
      }
      // Continuous changelog: a window's first top is one insert; each
      // later raise is an undo of the old top plus an insert of the new.
      var changelog = 0L
      live.foreach { p =>
        state.get(p.wstart) match {
          case None =>
            state(p.wstart) = p
            changelog += 1
          case Some(s) =>
            val raised = TopOrdering.gt(p, s)
            state(p.wstart) = (if (raised) p else s).copy(rows = s.rows + p.rows)
            if (raised) changelog += 2
        }
      }
      val wm = wmAfter(b)
      val emitted = mode match {
        case EngineMode.Continuous => changelog
        case EngineMode.AfterWatermark =>
          // Emit each window once, when the watermark passes its end; GC it.
          val done = state.values.filter(_.wend.getTime <= wm).toVector
          closed ++= done
          state --= done.map(_.wstart)
          done.size.toLong
      }
      wmPrev = wm
      BatchMetric(b, wm, arrived, state.values.map(_.rows).sum, state.size.toLong,
        emitted, late.map(_.rows).sum)
    }

    EngineResult(
      // AfterWatermark's emissions, or Continuous's state (it closes none).
      finalOutput = spark.createDataFrame(closed.result() ++ state.values).drop("rows"),
      perBatch = perBatch,
      totalEmitted = perBatch.map(_.emitted).sum,
      maxStateWindows = perBatch.map(_.stateWindows).foldLeft(0L)(math.max),
      maxRetainedRows = perBatch.map(_.retainedRows).foldLeft(0L)(math.max),
      totalDropped = perBatch.map(_.dropped).sum,
    )
  }
}

object MicroBatchEngine {
  /** A window's top bid over some of its input rows, and the number of
    * those rows (which a general, non-incremental operator must keep).
    */
  private final case class WindowTop(wstart: Timestamp, wend: Timestamp,
      bidtime: Timestamp, price: Long, item: String, rows: Long)

  /** Bids ordered as Spark's `max(struct(price, bidtime, item))` orders them. */
  private val TopOrdering: Ordering[WindowTop] =
    Ordering.by(t => (t.price, t.bidtime.toInstant, t.item))

  /** One batch's aggregate of one window, with the min event time (ms) of its rows. */
  private final case class Partial(batch: Int, minMs: Long, window: WindowTop)
}
