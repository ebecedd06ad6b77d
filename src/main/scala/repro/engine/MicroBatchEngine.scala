package repro.engine

import java.sql.Timestamp

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StructType}

import repro.core.{EmitSpec, EmitStateMachine}
import repro.core.expressions.WindowExpressions
import repro.tvr.WatermarkTimeline

/** Emission policy of the incremental engine: the EMIT modifiers
  * (Extensions 4–5) its output is materialized under.
  */
sealed abstract class EngineMode(val emit: EmitSpec)
object EngineMode {
  /** `EMIT STREAM`: materialize every change as it happens. */
  case object Continuous extends EngineMode(EmitSpec(stream = true))
  /** `EMIT STREAM AFTER WATERMARK`: materialize a window once, when the
    * watermark passes its end; drop later (late) inputs; GC its state.
    */
  case object AfterWatermark extends EngineMode(EmitSpec(stream = true, afterWatermark = true))
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
  * arrival-ordered micro-batches; the watermark is
  * [[WatermarkTimeline.perfect]] over batch indices, so after batch b it
  * is one ms below the min event time of every later batch.
  *
  * As in Structured Streaming, operators keep keyed state and one output
  * policy decides what is emitted. Partial aggregates are computed where
  * the rows are — one Spark query yields every (batch, window) top — and
  * merged on the driver, batch by batch, into the open windows' state
  * (top bid and input row count). After each batch the open windows are
  * fed to the evaluator's [[EmitStateMachine]], keyed on (wstart, wend),
  * which decides the changelog under `mode.emit`.
  */
final class MicroBatchEngine(spark: SparkSession) {
  import MicroBatchEngine._

  /** Run over `events` (columns bidtime, price, item, ptime; price integral). */
  def run(events: DataFrame, windowMs: Long, numBatches: Int, mode: EngineMode): EngineResult = {
    val (wstart, wend) = WindowExpressions.tumble(col("bidtime"), windowMs)
    // The first five columns are the output's: (wstart, wend, bidtime, price, item).
    val aggregated = events
      .withColumn("__batch", ntile(numBatches).over(Window.orderBy(col("ptime"), col("bidtime"))) - 1)
      .groupBy(col("__batch"), wstart.as("wstart"), wend.as("wend"))
      .agg(
        max(struct(col("price").cast(LongType).as("price"), col("bidtime"), col("item"))).as("top"),
        count(lit(1)).as("rows"),
        min(unix_millis(col("bidtime"))).as("minMs"))
      .select("wstart", "wend", "top.bidtime", "top.price", "top.item", "__batch", "minMs", "rows")
    val partials = aggregated.collect().map(r => Partial(r.getInt(5), r.getLong(6),
      WindowTop(r.getTimestamp(0), r.getTimestamp(1), r.getTimestamp(2), r.getLong(3), r.getString(4),
        r.getLong(7))))
    val byBatch = partials.groupBy(_.batch).withDefaultValue(Array.empty[Partial])

    val wm = WatermarkTimeline.perfect(partials.toSeq.map(p => (p.batch.toLong, p.minMs)), tickEvery = 1)
    // Extension 2: under AFTER WATERMARK a window expires once `wm` passes
    // its end; its state is freed and later partials for it are dropped.
    def expired(w: WindowTop, b: Long) = mode.emit.afterWatermark && wm.isComplete(w.wend.getTime, b)
    val machine = new EmitStateMachine(mode.emit, keyOf = _.take(2),
      complete = (k, b) => wm.isComplete(k(1).asInstanceOf[Timestamp].getTime, b))

    val state   = mutable.LinkedHashMap.empty[Timestamp, WindowTop] // open windows, by wstart
    var arrived = 0L
    val perBatch = (0 until numBatches).map { b =>
      val batch = byBatch(b).map(_.window)
      arrived += batch.map(_.rows).sum
      val (late, live) = batch.partition(expired(_, b - 1))
      live.foreach { p =>
        state(p.wstart) = state.get(p.wstart).fold(p) { s =>
          (if (TopOrdering.gt(p, s)) p else s).copy(rows = s.rows + p.rows)
        }
      }
      val before = machine.changelog.size
      machine.tick(b, state.values.map(_.row).toSeq)
      state.filterInPlace((_, w) => !expired(w, b))
      BatchMetric(b, wm.at(b), arrived, state.values.map(_.rows).sum, state.size.toLong,
        machine.changelog.size - before, late.map(_.rows).sum)
    }

    EngineResult(
      // A local relation, so collecting it launches no Spark job.
      finalOutput = spark.createDataFrame(machine.table.map(Row.fromSeq).asJava,
        StructType(aggregated.schema.take(5))),
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
      bidtime: Timestamp, price: Long, item: String, rows: Long) {
    def row: Seq[Any] = Seq(wstart, wend, bidtime, price, item)
  }

  /** Bids ordered as Spark's `max(struct(price, bidtime, item))` orders them. */
  private val TopOrdering: Ordering[WindowTop] =
    Ordering.by(t => (t.price, t.bidtime.toInstant, t.item))

  /** One batch's aggregate of one window, with the min event time (ms) of its rows. */
  private final case class Partial(batch: Int, minMs: Long, window: WindowTop)
}
