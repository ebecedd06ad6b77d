package repro.core

import java.util.Locale

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{AnalysisException, DataFrame, PlanFrames, Row, SparkSession}
import org.apache.spark.sql.catalyst.analysis.MultiInstanceRelation
import org.apache.spark.sql.catalyst.expressions.ExprId
import org.apache.spark.sql.catalyst.optimizer.InlineCTE
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, Repartition, View}
import org.apache.spark.sql.types._

import repro.core.EventTimeAlignment.Align
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
  * each input's snapshots at every tick ([[Tvr.snapshotsAt]]). A TVR
  * whose rows are exchanged, by a join, an aggregate, DISTINCT,
  * INTERSECT, EXCEPT or ORDER BY above its view or by the netting of a
  * changelog that retracts, is read in one partition when its changelog,
  * replicated to every tick, is small
  * ([[StreamSqlSession.OnePartitionBytes]]), so a query over such TVRs
  * plans no exchange and runs as one Spark stage. The snapshots are fed,
  * tick by tick, to an [[EmitStateMachine]], which diffs each event-time
  * group's rows into the changelog as the EMIT modifiers direct; with no
  * modifier that is exactly the paper's definition of the stream
  * rendering of a TVR. It pins down every listing in the paper;
  * [[repro.engine.MicroBatchEngine]] is the incremental counterpart
  * benchmarked against it.
  *
  * Responsibilities:
  *   - registry of named TVRs (streams are unbounded append-only TVRs,
  *     tables are degenerate static TVRs), each analyzed as a view in the
  *     session's own catalog, a `spark.newSession()`: a query resolves
  *     only the registered names and Spark's built-ins, and the caller's
  *     temp views and functions are neither read nor written;
  *   - EMIT parsing ([[EmitClause]]) and windowing-TVF lowering on the
  *     parsed plan ([[WindowTvfRewriter]]), which builds the window
  *     expressions itself, so no function is registered by name;
  *   - lifting the query over ticks ([[TickLifting]]);
  *   - watermark-alignment analysis of the analyzed plan
  *     ([[EventTimeAlignment]]), seeded from the views of the registered
  *     TVRs, to find the output's completeness gates;
  *   - Extension 2 validation of the analyzed plan
  *     ([[RequireEventTimeGrouping]]).
  */
final class StreamSqlSession(val spark: SparkSession) {

  /** Where queries are analyzed: the registered TVRs' views. Queries
    * run on `spark`.
    */
  private val catalog = spark.newSession()

  /** A registered TVR under the name it was last registered as, and
    * whether it is unbounded, which is what Extension 2 checks.
    */
  private final case class Registered(name: String, tvr: Tvr, unbounded: Boolean)

  /** The registered TVRs, keyed like Spark resolves a view's name:
    * ignoring case, so registering `Bid` after `bid` replaces it.
    */
  private val tvrs = mutable.HashMap.empty[String, Registered]
  private def key(name: String): String = name.toLowerCase(Locale.ROOT)

  /** Register an unbounded stream (append-only TVR, usually with an
    * event-time column and watermark).
    */
  def registerStream(name: String, tvr: Tvr): Unit = register(name, tvr, unbounded = true)

  /** Register a classic (bounded, static) table. */
  def registerTable(name: String, df: DataFrame): Unit = register(name, Tvr.fromStatic(df), unbounded = false)

  /** Register a bounded TVR (e.g. a recorded stream replayed as a table). */
  def registerBoundedTvr(name: String, tvr: Tvr): Unit = register(name, tvr, unbounded = false)

  /** Record `tvr` under `name` with its changelog as one leaf over the
    * changelog's rows, so that each `sql` call plans one leaf per TVR, not
    * the plan that made the changelog. The leaf is scanned once, now, by
    * one Spark job with no exchange, for its ticks and whether it retracts
    * ([[Tvr.tickPtimes]], [[Tvr.retracts]]). For analysis the name gets a
    * view: an empty relation of the TVR's data columns. It only stands in
    * for the TVR's snapshots, which [[TickLifting]] puts in its place, so
    * it is never run. The event-time column must be a TIMESTAMP.
    */
  private def register(name: String, tvr: Tvr, unbounded: Boolean): Unit = {
    tvr.eventTime.map(et => tvr.changelog.schema(et.column)).filter(_.dataType != TimestampType).foreach { f =>
      throw new StreamSqlAnalysisException(
        s"event time column ${f.name} of TVR $name is ${f.dataType.sql}, not TIMESTAMP")
    }
    val leaf = tvr.copy(changelog = PlanFrames.leaf(tvr.changelog))
    leaf.tickPtimes // the scan, here rather than in the first query
    tvrs(key(name)) = Registered(name, leaf, unbounded)
    val data = tvr.changelog.schema.filter(f => tvr.dataColumns.contains(f.name))
    catalog.createDataFrame(List.empty[Row].asJava, StructType(data)).createOrReplaceTempView(name)
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

  /** The registered TVR a view reads. */
  private def tvrOf(v: View): Option[Registered] =
    if (!v.isTempView) None else tvrs.get(key(v.desc.identifier.table))

  /** The event-time column of each registered TVR's view in `plan`. */
  private def seeds(plan: LogicalPlan): Map[ExprId, Align] =
    plan.collect { case v: View => v }.flatMap { v =>
      for {
        r  <- tvrOf(v)
        et <- r.tvr.eventTime
        a  <- v.output.find(_.name == et.column)
      } yield a.exprId -> Align(r.name, 0L, strict = true)
    }.toMap

  private def analyze(sqlText: String): (EmitSpec, LogicalPlan) = {
    val (noEmit, emit) = EmitClause.split(sqlText)
    // CTEs are inlined, so the lifting meets every view a reference reads.
    val analyzed =
      try PlanFrames.ofPlan(catalog, WindowTvfRewriter.rewrite(noEmit)).queryExecution.analyzed
      catch { case e: AnalysisException => throw new StreamSqlAnalysisException(e.getMessage, e) }
    (emit, InlineCTE(alwaysInline = true)(analyzed))
  }

  private def compile(sqlText: String, now: Long): Compiled = {
    val (emit, plan) = analyze(sqlText)
    val seeded  = seeds(plan)
    val aligns  = EventTimeAlignment.analyze(plan, seeded)
    val all     = plan.output.zipWithIndex.flatMap { case (a, i) => aligns.get(a.exprId).map(i -> _) }
    // Window bounds (non-strict) gate completeness; raw event-time keys
    // (strict) only gate when the query exposes no window bounds.
    val bounds  = all.filter(!_._2.strict)
    val gates   = if (bounds.nonEmpty) bounds else all
    // The table rendering is the snapshot at `now`; the stream rendering
    // needs every tick of the TVRs the query reads.
    val ticks =
      if (emit.isDefaultTable) Seq(now)
      else plan.collect { case v: View => tvrOf(v) }.flatten.flatMap(_.tvr.tickPtimes).distinct.sorted.filter(_ <= now)
    // Each view of a registered TVR becomes its own fresh ticked relation,
    // so a self-join's two sides share no attribute. Where its rows are
    // exchanged (by an operator above the view, see TickLifting, or by
    // netting a changelog that retracts), a changelog whose rows at all
    // ticks together are small is read in one partition: nothing above it
    // then needs an exchange, and a query over such TVRs runs as one
    // stage. Elsewhere one partition would only forgo parallelism.
    val maxSingle = math.min(StreamSqlSession.OnePartitionBytes, PlanFrames.maxSinglePartitionBytes(spark))
    def ticked(v: View, exchanged: Boolean) = tvrOf(v).map { r =>
      val small = r.tvr.changelog.queryExecution.optimizedPlan.stats.sizeInBytes * ticks.size <= maxSingle
      val one   = (exchanged || r.tvr.retracts) && small
      r.tvr.snapshotsAt(ticks).queryExecution.analyzed.transformUpWithNewOutput {
        case leaf: MultiInstanceRelation =>
          val fresh = leaf.newInstance()
          (if (one) Repartition(1, shuffle = false, fresh) else fresh, leaf.output.zip(fresh.output))
      }
    }
    val lifted = TickLifting.lift(plan, ticks, ticked)
    RequireEventTimeGrouping(plan, seeded, tvrOf(_).exists(_.unbounded))
    Compiled(emit, plan.schema, gates, ticks, PlanFrames.ofPlan(spark, lifted))
  }

  private def wmOf(source: String) =
    tvrs(key(source)).tvr.eventTime
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
  def alignmentOf(sqlText: String): Seq[(String, Align)] = {
    val plan = analyze(sqlText)._2
    EventTimeAlignment.outputAlignment(plan, seeds(plan))
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

  /** The largest changelog, in Spark's estimate of its bytes times the
    * ticks its rows are replicated to, that a query reads in one
    * partition to save its exchanges. It is measured, on 4 cores, with
    * lifted Q7, a Tumble aggregate and a passthrough of a retracting
    * changelog over 20 to 300,000 bids in 13 to 23 ticks, each read in one
    * partition and, alternating, with exchanges (`BENCH_8.json`
    * "partition_sweep"). One partition took 0.50 to 0.88 of the time up
    * to 36 MB, 0.84 to 1.22 of it at 53 to 81 MB, and 1.06 to 1.72 of it
    * at 109 and 165 MB. A SparkSession's `spark.sql.maxSinglePartitionBytes`,
    * the most Spark itself plans in one partition without a shuffle,
    * lowers the bound further.
    */
  private[core] val OnePartitionBytes: Long = 32L << 20
}
