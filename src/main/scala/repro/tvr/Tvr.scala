package repro.tvr

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{BooleanType, TimestampType}

/** Event-time metadata for one column of a relation (paper Extension 1):
  * the column holds `TIMESTAMP` values and carries an associated
  * watermark maintained as time-varying metadata of the relation.
  */
final case class EventTimeMeta(column: String, watermark: WatermarkTimeline)

/** A time-varying relation (paper Section 3.1), changelog-encoded.
  *
  * `changelog` is a DataFrame of the relation's data columns plus:
  *   - `__ptime` (TimestampType): processing time the change was applied;
  *   - `__undo` (BooleanType): true if the change retracts a row.
  *
  * The snapshot at processing time `p` is the bag of inserted-minus-
  * retracted rows with `__ptime <= p`; the stream view is the changelog
  * itself. The two encodings are duals of the one semantic object.
  *
  * A static table is the degenerate TVR whose changelog inserts every row
  * at `ptime = Long.MinValue`-ish (here: epoch 0) and never changes.
  *
  * `appendOnly` states that the changelog retracts nothing, as for every
  * source stream and static table; its snapshots then need no netting.
  * The constructors below set it when they know it.
  */
final case class Tvr(
    changelog: DataFrame,
    eventTime: Option[EventTimeMeta] = None,
    appendOnly: Boolean = false,
) {
  import Tvr._

  require(changelog.columns.contains(PtimeCol), s"changelog must carry $PtimeCol")
  require(changelog.columns.contains(UndoCol), s"changelog must carry $UndoCol")
  eventTime.foreach { m =>
    require(changelog.columns.contains(m.column), s"event time column ${m.column} missing")
  }

  /** The relation's visible (data) columns, in schema order. */
  def dataColumns: Seq[String] =
    changelog.columns.toSeq.filterNot(c => c == PtimeCol || c == UndoCol)

  /** The snapshots at every tick in `ticks`, in one relation: the data
    * columns plus `__tick`, the tick (epoch ms) whose snapshot a row
    * belongs to.
    *
    * Each changelog row is replicated to every tick at or after its
    * `__ptime`. For an append-only changelog that is already every
    * snapshot. Otherwise one groupBy on the data columns and the tick nets
    * inserts against retractions.
    */
  def snapshotsAt(ticks: Seq[Long]): DataFrame = {
    val ticked = changelog
      .withColumn(TickCol, explode(typedLit(ticks)))
      .where(col(TickCol) >= unix_millis(col(PtimeCol)))
    val cols = (dataColumns :+ TickCol).map(col)
    if (appendOnly) ticked.select(cols: _*)
    else Diff.expand(
      ticked
        .groupBy(cols: _*)
        .agg(sum(when(col(UndoCol), -1L).otherwise(1L)).as("__cnt"))
        .where(col("__cnt") > 0)
    )
  }

  /** Point-in-time view: the classic relation at processing time `p`. */
  def snapshotAt(p: Long): DataFrame = snapshotsAt(Seq(p)).drop(TickCol)

  /** The final snapshot (all changes applied). */
  def snapshot: DataFrame = snapshotAt(Long.MaxValue / 2)

  /** Distinct processing times at which this TVR changes, ascending. */
  def changePtimes: Seq[Long] =
    changelog
      .select(unix_millis(col(PtimeCol)).as("p"))
      .distinct()
      .collect()
      .map(_.getLong(0))
      .sorted
      .toSeq

  /** All ticks at which downstream results can change: data changes plus
    * watermark advances (watermarks are semantic inputs — Section 6.2).
    */
  def tickPtimes: Seq[Long] =
    (changePtimes ++ eventTime.map(_.watermark.tickPtimes).getOrElse(Vector.empty)).distinct.sorted

  def withWatermark(column: String, wm: WatermarkTimeline): Tvr =
    copy(eventTime = Some(EventTimeMeta(column, wm)))
}

object Tvr {
  val PtimeCol = "__ptime"
  val UndoCol  = "__undo"
  val TickCol  = "__tick"

  /** Wrap a static DataFrame as a TVR (single snapshot at epoch 0). */
  def fromStatic(df: DataFrame): Tvr = Tvr(
    df.withColumn(PtimeCol, lit(0L).cast(TimestampType))
      .withColumn(UndoCol, lit(false).cast(BooleanType)),
    appendOnly = true,
  )

  /** Build an append-only TVR from an arrival log: each row is inserted at
    * the processing time in `ptimeCol` (TimestampType or epoch-millis
    * Long) and never retracted — the shape of every source stream.
    */
  def appendOnly(arrivals: DataFrame, ptimeCol: String): Tvr = {
    val ptimed = arrivals
      .withColumn(PtimeCol, col(ptimeCol).cast(TimestampType))
      .withColumn(UndoCol, lit(false).cast(BooleanType))
      .drop(ptimeCol)
    Tvr(ptimed, appendOnly = true)
  }

  /** Build from driver-side tuples `(ptimeMs, undo, dataRow)`. */
  def ofRows(
      spark: SparkSession,
      schema: org.apache.spark.sql.types.StructType,
      rows: Seq[(Long, Boolean, Seq[Any])],
  ): Tvr = {
    val full = org.apache.spark.sql.types.StructType(
      schema.fields :+
        org.apache.spark.sql.types.StructField(PtimeCol, TimestampType) :+
        org.apache.spark.sql.types.StructField(UndoCol, BooleanType))
    val data = rows.map { case (p, u, d) =>
      org.apache.spark.sql.Row.fromSeq(d :+ Times.ts(p) :+ u)
    }
    // A local relation, so Spark knows its size.
    Tvr(spark.createDataFrame(data.asJava, full), appendOnly = rows.forall(!_._2))
  }
}
