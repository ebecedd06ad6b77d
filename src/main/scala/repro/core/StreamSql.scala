package repro.core

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._

import repro.core.EventTimeAlignment.Align
import repro.core.expressions.WindowExpressions
import repro.tvr.{Diff, Times, Tvr}

/** The paper's proposal, executable: one SQL text over time-varying
  * relations, materialized as a table or as a stream under the EMIT
  * modifiers of Section 6.5.
  *
  * This is the *reference evaluator*: semantics first. The result TVR is
  * re-evaluated (pointwise, per Section 3.1) at every tick — every
  * processing time at which any input changes or any watermark advances —
  * and consecutive snapshots are bag-diffed into the changelog, which is
  * exactly the paper's definition of the stream rendering of a TVR. It is
  * correct by construction and used to pin down every listing in the
  * paper; [[repro.engine.MicroBatchEngine]] is the scalable incremental
  * counterpart benchmarked against it.
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

  /** Whether a row (by its gate values) is complete at processing time p. */
  private def rowComplete(c: Compiled, row: Seq[Any], p: Long): Boolean =
    c.gates.forall { case (i, al) =>
      row(i) match {
        case null         => false
        case t: java.sql.Timestamp =>
          wmOf(al.source).isComplete(Times.ms(t) + al.deltaMs, p, strict = al.strict)
        case other =>
          throw new StreamSqlAnalysisException(s"gate column value is not a timestamp: $other")
      }
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
    if (c.emit.isDefaultTable) {
      val rows = eval(c, now)
      spark.createDataFrame(
        spark.sparkContext.parallelize(rows, 1).toJavaRDD(), c.schema)
    } else {
      if (c.emit.afterWatermark && c.gates.isEmpty)
        throw new StreamSqlAnalysisException(
          "EMIT AFTER WATERMARK requires a watermark-aligned event-time column " +
            "in the query output (none found by alignment analysis)")
      val changelog = runStream(c, now)
      if (c.emit.stream) changelogDf(c, changelog)
      else tableFromChangelog(c, changelog)
    }
  }

  /** The output alignment of a query's plan, for inspection/tests. */
  def alignmentOf(sqlText: String): Seq[(String, Align)] = {
    val (noEmit, _) = EmitClause.split(sqlText)
    val rewritten   = WindowTvfRewriter.rewrite(noEmit)
    registerSnapshotViews(Long.MinValue / 2)
    EventTimeAlignment.outputAlignment(spark.sql(rewritten.sql).queryExecution.analyzed)
  }

  // ------------------------------------------------------------------
  // Stream evaluation
  // ------------------------------------------------------------------

  private final case class Change(row: Seq[Any], undo: Boolean, ptime: Long, ver: Int)

  /** Run the materialization state machine over all ticks <= now and
    * return the emitted changelog (Extensions 4–7 semantics; see
    * DESIGN.md "Semantics pinned down" for the listing-by-listing
    * derivation).
    */
  private def runStream(c: Compiled, now: Long): Seq[Change] = {
    val emit        = c.emit
    val out         = Vector.newBuilder[Change]
    val verCounter  = mutable.Map.empty[Seq[Any], Int].withDefaultValue(0)
    // Rows currently materialized, as a bag keyed by full row values.
    var materialized = Map.empty[Seq[Any], Int]
    val completed    = mutable.Set.empty[Seq[Any]]          // gated groups already final
    val timers       = mutable.SortedMap.empty[Long, mutable.LinkedHashSet[Seq[Any]]]

    def emitChanges(p: Long, dels: Seq[Seq[Any]], ins: Seq[Seq[Any]]): Unit = {
      dels.foreach { r =>
        val g = groupKey(c, r)
        out += Change(r, undo = true, p, verCounter(g)); verCounter(g) += 1
      }
      ins.foreach { r =>
        val g = groupKey(c, r)
        out += Change(r, undo = false, p, verCounter(g)); verCounter(g) += 1
      }
    }

    def bagOfGroup(bag: Map[Seq[Any], Int], g: Seq[Any]): Map[Seq[Any], Int] =
      bag.filter { case (r, _) => groupKey(c, r) == g }

    def armTimer(g: Seq[Any], at: Long): Unit =
      if (!timers.values.exists(_.contains(g)))
        timers.getOrElseUpdate(at, mutable.LinkedHashSet.empty) += g

    /** Emit the delta for group `g` against `cur`, at ptime `p`. */
    def materializeGroup(cur: Map[Seq[Any], Int], g: Seq[Any], p: Long): Unit = {
      val before       = bagOfGroup(materialized, g)
      val after        = bagOfGroup(cur, g)
      val (ins, dels)  = Diff.bagDiff(before, after)
      if (ins.nonEmpty || dels.nonEmpty) {
        emitChanges(p, dels, ins)
        materialized = materialized.view.filterKeys(r => groupKey(c, r) != g).toMap ++ after
      }
    }

    def fireTimersUpTo(p: Long, curAt: Long => Map[Seq[Any], Int]): Unit = {
      while (timers.nonEmpty && timers.head._1 <= p) {
        val (fireAt, groups) = timers.head
        timers.remove(fireAt)
        val cur = curAt(fireAt)
        groups.foreach { g => if (!completed.contains(g)) materializeGroup(cur, g, fireAt) }
      }
    }

    val allTicks = ticks(now)
    val curCache = mutable.Map.empty[Long, Map[Seq[Any], Int]]
    def curAt(p: Long): Map[Seq[Any], Int] =
      curCache.getOrElseUpdate(p, Diff.toBag(eval(c, p)))

    for (p <- allTicks) {
      if (emit.delayMs.isDefined) fireTimersUpTo(p - 1, curAt)
      val cur = curAt(p)

      (emit.afterWatermark, emit.delayMs) match {
        case (false, None) =>
          // Continuous changelog (Extension 4 / Listing 9): every change
          // materializes instantly.
          val (ins, dels) = Diff.bagDiff(materialized, cur)
          emitChanges(p, dels, ins)
          materialized = cur

        case (true, None) =>
          // Completeness-only (Extension 5 / Listing 13): a gated group
          // materializes exactly once, when the watermark passes it.
          val newlyComplete = cur.keys
            .map(groupKey(c, _))
            .toSeq.distinct
            .filterNot(completed.contains)
            .filter { g =>
              // Complete iff every row of the group is complete at p.
              cur.keys.filter(groupKey(c, _) == g).forall(rowComplete(c, _, p))
            }
          newlyComplete.foreach { g => materializeGroup(cur, g, p); completed += g }

        case (_, Some(d)) =>
          // Periodic delay (Extensions 6/7 / Listing 14): first change to
          // a group arms a timer at change-time + d; the timer emits the
          // group's then-current delta. With AFTER WATERMARK, completion
          // also fires immediately (the on-time row) and freezes the
          // group (late inputs dropped, Extension 2).
          val changedGroups = {
            val (ins, dels) = Diff.bagDiff(materialized, cur)
            (ins ++ dels).map(groupKey(c, _)).distinct
          }
          changedGroups.filterNot(completed.contains).foreach(armTimer(_, p + d))
          if (emit.afterWatermark) {
            val nowComplete = cur.keys
              .map(groupKey(c, _))
              .toSeq.distinct
              .filterNot(completed.contains)
              .filter(g => cur.keys.filter(groupKey(c, _) == g).forall(rowComplete(c, _, p)))
            nowComplete.foreach { g =>
              materializeGroup(cur, g, p)
              completed += g
              timers.values.foreach(_.remove(g))
            }
          }
      }
    }

    // Drain timers that fire after the last tick (but within `now`).
    if (emit.delayMs.isDefined) fireTimersUpTo(now, p => curAt(allTicks.lastOption.fold(p)(math.min(_, p))))

    out.result()
  }

  private def changelogDf(c: Compiled, changes: Seq[Change]): DataFrame = {
    val schema = StructType(
      c.schema.fields ++ Seq(
        StructField("undo", BooleanType, nullable = false),
        StructField("ptime", TimestampType, nullable = false),
        StructField("ver", IntegerType, nullable = false),
      ))
    val rows = changes.map(ch => Row.fromSeq(ch.row ++ Seq(ch.undo, Times.ts(ch.ptime), ch.ver)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 1).toJavaRDD(), schema)
  }

  /** Fold a changelog back into its table rendering — the declarative
    * stream-to-table conversion the paper notes needs no special
    * operators (Section 3.3.1).
    */
  private def tableFromChangelog(c: Compiled, changes: Seq[Change]): DataFrame = {
    val bag = mutable.Map.empty[Seq[Any], Int].withDefaultValue(0)
    changes.foreach { ch => bag(ch.row) += (if (ch.undo) -1 else 1) }
    val rows = bag.toSeq.flatMap { case (r, n) => Seq.fill(n)(Row.fromSeq(r)) }
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 1).toJavaRDD(), c.schema)
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
