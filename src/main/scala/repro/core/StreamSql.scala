package repro.core

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._

import repro.core.EventTimeAlignment.Align
import repro.core.expressions.WindowExpressions
import repro.tvr.{Times, Tvr}

/** The paper's proposal, executable: one SQL text over time-varying
  * relations, materialized as a table or as a stream under the EMIT
  * modifiers of Section 6.5.
  *
  * This is the *reference evaluator*: semantics first. The result TVR is
  * re-evaluated (pointwise, per Section 3.1) once at every tick — every
  * processing time at which any input changes or any watermark advances —
  * and the snapshots are fed to an [[EmitStateMachine]], which diffs each
  * event-time group's rows into the changelog as the EMIT modifiers
  * direct; with no modifier that is exactly the paper's definition of
  * the stream rendering of a TVR. It is correct by construction and used
  * to pin down every listing in the paper; [[repro.engine.MicroBatchEngine]]
  * is the scalable incremental counterpart benchmarked against it.
  *
  * Responsibilities:
  *   - registry of named TVRs (streams are unbounded append-only TVRs,
  *     tables are degenerate static TVRs);
  *   - EMIT parsing ([[EmitClause]]) and windowing-TVF lowering
  *     ([[WindowTvfRewriter]]);
  *   - watermark-alignment analysis of the compiled plan
  *     ([[EventTimeAlignment]]) to find the output's completeness gates;
  *   - Extension 2 validation ([[RequireEventTimeGrouping]], injected via
  *     `spark.experimental.extraOptimizations`).
  */
final class StreamSqlSession(val spark: SparkSession) {

  WindowExpressions.register(spark)
  StreamSqlSession.installRule(spark)

  // Tick ptimes are computed from the unstamped changelog at
  // registration: the bookkeeping DISTINCT would otherwise itself trip
  // Extension 2's rule on the stamped (unbounded-marked) relation.
  private final case class Registered(tvr: Tvr, unbounded: Boolean, tickPtimes: Seq[Long])
  private val tvrs = mutable.LinkedHashMap.empty[String, Registered]

  /** Register an unbounded stream (append-only TVR, usually with an
    * event-time column and watermark).
    */
  def registerStream(name: String, tvr: Tvr): Unit =
    tvrs(name) = Registered(stamp(name, tvr, unbounded = true), unbounded = true, tvr.tickPtimes)

  /** Register a classic (bounded, static) table. */
  def registerTable(name: String, df: DataFrame): Unit = {
    val t = Tvr.fromStatic(df)
    tvrs(name) = Registered(t, unbounded = false, t.tickPtimes)
  }

  /** Register a bounded TVR (e.g. a recorded stream replayed as a table). */
  def registerBoundedTvr(name: String, tvr: Tvr): Unit =
    tvrs(name) = Registered(stamp(name, tvr, unbounded = false), unbounded = false, tvr.tickPtimes)

  /** Stamp alignment metadata into the changelog's *leaf schema*: every
    * attribute derived from it then carries the marker natively, which —
    * unlike alias-level stamping — survives projection collapse in the
    * optimizer.
    */
  private def stamp(name: String, tvr: Tvr, unbounded: Boolean): Tvr = {
    val etCol = tvr.eventTime.map(_.column)
    etCol.map(tvr.changelog.schema(_)).filter(_.dataType != TimestampType).foreach { f =>
      throw new StreamSqlAnalysisException(
        s"event time column ${f.name} of TVR $name is ${f.dataType.sql}, not TIMESTAMP")
    }
    val bookkeeping = Set(Tvr.PtimeCol, Tvr.UndoCol)
    val schema = StructType(tvr.changelog.schema.fields.map { f =>
      if (etCol.contains(f.name))
        f.copy(metadata = EventTimeAlignment.eventTimeMetadata(name, unbounded))
      else if (unbounded && !bookkeeping.contains(f.name))
        f.copy(metadata = EventTimeAlignment.unboundedMetadata(name))
      else f
    })
    tvr.copy(changelog = spark.createDataFrame(tvr.changelog.rdd, schema))
  }

  // ------------------------------------------------------------------

  private final case class Compiled(
      baseSql: String,
      emit: EmitSpec,
      schema: StructType,
      gates: Seq[(Int, Align)], // output ordinal -> alignment
  )

  /** Late-bound per-group key: the gate column values (the event-time
    * window identity), or the whole row when the query has no gates.
    */
  private def groupKey(c: Compiled, row: Seq[Any]): Seq[Any] =
    if (c.gates.isEmpty) row else c.gates.map { case (i, _) => row(i) }

  private def registerSnapshotViews(p: Long): Unit =
    tvrs.foreach { case (name, Registered(tvr, _, _)) =>
      // Alignment metadata was stamped into the changelog leaf schema at
      // registration and flows through the snapshot derivation.
      tvr.snapshotAt(p).createOrReplaceTempView(name)
    }

  private def compile(sqlText: String): Compiled = {
    val (noEmit, emit) = EmitClause.split(sqlText)
    val rewritten      = WindowTvfRewriter.rewrite(noEmit)
    // Analyze once (views at epoch) for schema + gate discovery.
    registerSnapshotViews(Long.MinValue / 2)
    val df      = spark.sql(rewritten.sql)
    val aligns  = EventTimeAlignment.analyze(df.queryExecution.analyzed)
    val out     = df.queryExecution.analyzed.output
    val all     = out.zipWithIndex.flatMap { case (a, i) => aligns.get(a.exprId).map(i -> _) }
    // Window bounds (non-strict) gate completeness; raw event-time keys
    // (strict) only gate when the query exposes no window bounds.
    val bounds  = all.filter(!_._2.strict)
    val gates   = if (bounds.nonEmpty) bounds else all
    Compiled(rewritten.sql, emit, df.schema, gates)
  }

  private def eval(c: Compiled, p: Long): Seq[Row] = {
    registerSnapshotViews(p)
    spark.sql(c.baseSql).collect().toSeq
  }

  private def wmOf(source: String) =
    tvrs(source).tvr.eventTime
      .getOrElse(throw new StreamSqlAnalysisException(s"TVR $source has no event time column"))
      .watermark

  /** Whether a group (by its gate values) is complete at processing
    * time p. Gate values are timestamps, since registration admits only
    * TIMESTAMP event-time columns; a null one never completes.
    */
  private def groupComplete(c: Compiled, key: Seq[Any], p: Long): Boolean =
    c.gates.zip(key).forall {
      case ((_, al), t: java.sql.Timestamp) =>
        wmOf(al.source).isComplete(Times.ms(t) + al.deltaMs, p, strict = al.strict)
      case _ => false
    }

  /** All ticks (input changes and watermark advances), ascending, <= now. */
  private def ticks(now: Long): Seq[Long] =
    tvrs.values.flatMap(_.tickPtimes).toSeq.distinct.sorted.filter(_ <= now)

  // ------------------------------------------------------------------
  // Public API
  // ------------------------------------------------------------------

  /** Execute `sqlText` as observed at processing time `now` (epoch ms).
    *
    * Default / `EMIT AFTER WATERMARK` / `EMIT AFTER DELAY` produce the
    * table rendering; any `EMIT STREAM` variant produces the changelog
    * rendering with `undo`, `ptime`, `ver` columns (Extension 4).
    */
  def sql(sqlText: String, now: Long = Long.MaxValue / 2): DataFrame = {
    val c = compile(sqlText)
    if (c.emit.isDefaultTable) rowsDf(eval(c, now), c.schema)
    else {
      if (c.emit.afterWatermark && c.gates.isEmpty)
        throw new StreamSqlAnalysisException(
          "EMIT AFTER WATERMARK requires a watermark-aligned event-time column " +
            "in the query output (none found by alignment analysis)")
      // The query runs once per tick; the state machine does the rest
      // (Extensions 4–7; DESIGN.md "Semantics pinned down").
      val m = new EmitStateMachine(c.emit, groupKey(c, _), groupComplete(c, _, _))
      ticks(now).foreach(p => m.tick(p, eval(c, p).map(_.toSeq)))
      m.finish(now)
      if (c.emit.stream) changelogDf(c, m.changelog)
      else rowsDf(m.table.map(Row.fromSeq), c.schema)
    }
  }

  /** The output alignment of a query's plan, for inspection/tests. */
  def alignmentOf(sqlText: String): Seq[(String, Align)] = {
    val (noEmit, _) = EmitClause.split(sqlText)
    val rewritten   = WindowTvfRewriter.rewrite(noEmit)
    registerSnapshotViews(Long.MinValue / 2)
    EventTimeAlignment.outputAlignment(spark.sql(rewritten.sql).queryExecution.analyzed)
  }

  /** A local relation, so collecting a result launches no Spark job. */
  private def rowsDf(rows: Seq[Row], schema: StructType): DataFrame =
    spark.createDataFrame(rows.asJava, schema)

  private def changelogDf(c: Compiled, changes: Seq[Change]): DataFrame = {
    val schema = StructType(
      c.schema.fields ++ Seq(
        StructField("undo", BooleanType, nullable = false),
        StructField("ptime", TimestampType, nullable = false),
        StructField("ver", IntegerType, nullable = false),
      ))
    rowsDf(changes.map(ch => Row.fromSeq(ch.row ++ Seq(ch.undo, Times.ts(ch.ptime), ch.ver))), schema)
  }
}

object StreamSqlSession {
  /** Add the Extension 2 rule to `spark`'s optimizer, once per session. */
  private def installRule(spark: SparkSession): Unit =
    if (!spark.experimental.extraOptimizations.contains(RequireEventTimeGrouping)) {
      spark.experimental.extraOptimizations =
        spark.experimental.extraOptimizations :+ RequireEventTimeGrouping
    }
}
