package repro.core

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, PlanFrames, Row, SparkSession}
import org.apache.spark.sql.catalyst.analysis.MultiInstanceRelation
import org.apache.spark.sql.catalyst.optimizer.InlineCTE
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, View}
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
  * evaluated pointwise (Section 3.1) at every tick — every processing
  * time at which an input the query reads changes or its watermark
  * advances. One Spark query computes all those snapshots at once: the
  * query is lifted over a tick dimension ([[TickLifting]]) and run over
  * each input's snapshots at every tick ([[Tvr.snapshotsAt]]). The
  * snapshots are fed, tick by tick, to an [[EmitStateMachine]], which
  * diffs each event-time group's rows into the changelog as the EMIT
  * modifiers direct; with no modifier that is exactly the paper's
  * definition of the stream rendering of a TVR. It pins down every
  * listing in the paper; [[repro.engine.MicroBatchEngine]] is the
  * incremental counterpart benchmarked against it.
  *
  * Responsibilities:
  *   - registry of named TVRs (streams are unbounded append-only TVRs,
  *     tables are degenerate static TVRs);
  *   - EMIT parsing ([[EmitClause]]) and windowing-TVF lowering
  *     ([[WindowTvfRewriter]]);
  *   - lifting the query over ticks ([[TickLifting]]);
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
  private final case class Registered(tvr: Tvr, tickPtimes: Seq[Long])
  private val tvrs = mutable.LinkedHashMap.empty[String, Registered]

  /** Register an unbounded stream (append-only TVR, usually with an
    * event-time column and watermark).
    */
  def registerStream(name: String, tvr: Tvr): Unit =
    tvrs(name) = Registered(stamp(name, tvr, unbounded = true), tvr.tickPtimes)

  /** Register a classic (bounded, static) table. */
  def registerTable(name: String, df: DataFrame): Unit = {
    val t = Tvr.fromStatic(df)
    tvrs(name) = Registered(t, t.tickPtimes)
  }

  /** Register a bounded TVR (e.g. a recorded stream replayed as a table). */
  def registerBoundedTvr(name: String, tvr: Tvr): Unit =
    tvrs(name) = Registered(stamp(name, tvr, unbounded = false), tvr.tickPtimes)

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
    tvr.copy(changelog = PlanFrames.withSchema(tvr.changelog, schema))
  }

  // ------------------------------------------------------------------

  /** A query ready to run: `lifted` computes its result snapshot at every
    * one of `ticks`, as the result columns followed by the tick.
    */
  private final case class Compiled(
      emit: EmitSpec,
      schema: StructType,
      gates: Seq[(Int, Align)], // output ordinal -> alignment
      ticks: Seq[Long],
      lifted: DataFrame,
  )

  /** Late-bound per-group key: the gate column values (the event-time
    * window identity), or the whole row when the query has no gates.
    */
  private def groupKey(c: Compiled, row: Seq[Any]): Seq[Any] =
    if (c.gates.isEmpty) row else c.gates.map { case (i, _) => row(i) }

  /** Each TVR's view as this session last registered it: the TVR and
    * the catalog entry it became, both compared by reference.
    */
  private val views = mutable.Map.empty[String, (Registered, AnyRef)]

  /** Register one view per TVR for analysis: the changelog's data
    * columns, which carry the alignment metadata stamped at registration.
    * It only stands in for the TVR's snapshots, which [[TickLifting]] puts
    * in its place, so it is never run. Registering a view is a command
    * execution, so a view still in the catalog as this session left it
    * is kept; one that another session, or a newer registration under
    * its name, replaced is registered again.
    */
  private def registerViews(): Unit =
    tvrs.foreach { case (name, r) =>
      val current = PlanFrames.tempView(spark, name)
      if (!views.get(name).exists { case (v, entry) => (v eq r) && current.exists(_ eq entry) }) {
        r.tvr.changelog.select(r.tvr.dataColumns.map(col): _*).createOrReplaceTempView(name)
        PlanFrames.tempView(spark, name).foreach(entry => views(name) = (r, entry))
      }
    }

  /** The registered TVR a view reads, by name. */
  private def tvrOf(v: View): Option[Registered] =
    if (!v.isTempView) None
    else tvrs.collectFirst { case (name, r) if name.equalsIgnoreCase(v.desc.identifier.table) => r }

  private def analyze(sqlText: String): (EmitSpec, LogicalPlan) = {
    val (noEmit, emit) = EmitClause.split(sqlText)
    registerViews()
    // CTEs are inlined, so the lifting meets every view a reference reads.
    (emit, InlineCTE(alwaysInline = true)(spark.sql(WindowTvfRewriter.rewrite(noEmit).sql).queryExecution.analyzed))
  }

  private def compile(sqlText: String, now: Long): Compiled = {
    val (emit, plan) = analyze(sqlText)
    val aligns  = EventTimeAlignment.analyze(plan)
    val all     = plan.output.zipWithIndex.flatMap { case (a, i) => aligns.get(a.exprId).map(i -> _) }
    // Window bounds (non-strict) gate completeness; raw event-time keys
    // (strict) only gate when the query exposes no window bounds.
    val bounds  = all.filter(!_._2.strict)
    val gates   = if (bounds.nonEmpty) bounds else all
    // The table rendering is the snapshot at `now`; the stream rendering
    // needs every tick of the TVRs the query reads.
    val ticks =
      if (emit.isDefaultTable) Seq(now)
      else plan.collect { case v: View => tvrOf(v) }.flatten.flatMap(_.tickPtimes).distinct.sorted.filter(_ <= now)
    // Each view of a registered TVR becomes its own fresh ticked relation,
    // so a self-join's two sides share no attribute.
    def ticked(v: View) = tvrOf(v).map { r =>
      r.tvr.snapshotsAt(ticks).queryExecution.analyzed.transformUpWithNewOutput {
        case leaf: MultiInstanceRelation =>
          val fresh = leaf.newInstance()
          (fresh, leaf.output.zip(fresh.output))
      }
    }
    val lifted = PlanFrames.ofPlan(spark, TickLifting.lift(plan, ticks, ticked))
    Compiled(emit, plan.schema, gates, ticks, lifted)
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
    val c = compile(sqlText, now)
    if (c.emit.afterWatermark && c.gates.isEmpty)
      throw new StreamSqlAnalysisException(
        "EMIT AFTER WATERMARK requires a watermark-aligned event-time column " +
          "in the query output (none found by alignment analysis)")
    // One query computes every tick's snapshot, the tick in the last column.
    val byTick = c.lifted.collect().groupBy(r => r.getLong(r.length - 1))
    def snapshot(p: Long): Seq[Seq[Any]] = byTick.getOrElse(p, Array.empty[Row]).toSeq.map(_.toSeq.init)
    if (c.emit.isDefaultTable) rowsDf(snapshot(now).map(Row.fromSeq), c.schema)
    else {
      // The state machine does the rest (Extensions 4–7; DESIGN.md
      // "Semantics pinned down").
      val m = new EmitStateMachine(c.emit, groupKey(c, _), groupComplete(c, _, _))
      c.ticks.foreach(p => m.tick(p, snapshot(p)))
      m.finish(now)
      if (c.emit.stream) changelogDf(c, m.changelog)
      else rowsDf(m.table.map(Row.fromSeq), c.schema)
    }
  }

  /** The output alignment of a query's plan, for inspection/tests. */
  def alignmentOf(sqlText: String): Seq[(String, Align)] =
    EventTimeAlignment.outputAlignment(analyze(sqlText)._2)

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
