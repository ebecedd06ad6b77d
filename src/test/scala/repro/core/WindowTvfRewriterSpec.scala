package repro.core

import org.apache.spark.sql.catalyst.analysis.{UnresolvedAttribute, UnresolvedRelation, UnresolvedStar, UnresolvedTableValuedFunction}
import org.apache.spark.sql.catalyst.expressions.{Alias, Explode, Expression}
import org.apache.spark.sql.catalyst.parser.CatalystSqlParser
import org.apache.spark.sql.catalyst.plans.logical.{Generate, LogicalPlan, Project, SubqueryAlias}

import repro.SparkSpec
import repro.core.expressions.{EventTimePlus, HopWstarts, TumbleWend, TumbleWstart}
import repro.paperexample.PaperDataset
import repro.tvr.Times

class WindowTvfRewriterSpec extends SparkSpec {

  private lazy val session = {
    val s = new StreamSqlSession(spark)
    s.registerStream("Bid", PaperDataset.bidTvr(spark))
    s
  }

  private val TimeDur = "timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE"
  private val Bidtime = UnresolvedAttribute("bidtime")
  private val TenMin  = 10 * Times.MinuteMs

  /** Every expression of `plan`'s operators, subqueries included. */
  private def exprs(plan: LogicalPlan): Seq[Expression] =
    plan.collectWithSubqueries { case p => p.expressions.flatMap(_.collect { case e => e }) }.flatten

  private def tvfCalls(plan: LogicalPlan) =
    plan.collectWithSubqueries { case f: UnresolvedTableValuedFunction => f }

  /** `sql`'s table rendering, as sorted rows. */
  private def rows(sql: String): Seq[String] = session.sql(sql).collect().toSeq.map(_.toString).sorted

  private def rejected(sql: String, msg: String): Unit = {
    val e = intercept[StreamSqlAnalysisException](session.sql(sql))
    assert(e.getMessage.contains(msg), e.getMessage)
  }

  test("Tumble lowers to a projection with wstart/wend") {
    val plan = WindowTvfRewriter.rewrite(s"SELECT * FROM Tumble(data => TABLE(Bid), $TimeDur)")
    val lowered = plan.collectFirst {
      case Project(Seq(UnresolvedStar(None), Alias(ws, "wstart"), Alias(we, "wend")), r: UnresolvedRelation) =>
        (ws, we, r.multipartIdentifier)
    }
    assert(lowered == Some((TumbleWstart(Bidtime, TenMin, 0L), TumbleWend(Bidtime, TenMin, 0L), Seq("Bid"))))
    assert(tvfCalls(plan).isEmpty)
  }

  test("Tumble honors the optional offset") {
    val e = exprs(WindowTvfRewriter.rewrite(
      "SELECT * FROM Tumble(data => TABLE(T), timecol => DESCRIPTOR(ts), " +
        "dur => INTERVAL '1' HOUR, offset => INTERVAL '15' MINUTE)"))
    val (ts, hour, off) = (UnresolvedAttribute("ts"), Times.HourMs, 15 * Times.MinuteMs)
    assert(e.contains(TumbleWstart(ts, hour, off)))
    assert(e.contains(TumbleWend(ts, hour, off)))
  }

  test("an offset may be negative") {
    def windows(off: String) = rows(
      s"SELECT wstart, wend, item FROM Tumble(data => TABLE(Bid), $TimeDur, offset => INTERVAL '$off' MINUTE)")
    assert(windows("-3") == windows("7"))
    assert(windows("-3") != windows("0"))
  }

  test("Hop lowers to a LATERAL VIEW explode over hop_wstarts") {
    val ws = UnresolvedAttribute("__ws")
    val lowered = WindowTvfRewriter.rewrite(
      s"SELECT * FROM Hop(data => TABLE(Bid), $TimeDur, hopsize => INTERVAL '5' MINUTE)").collectFirst {
      case Project(Seq(UnresolvedStar(Some(Seq("__src"))), Alias(`ws`, "wstart"), Alias(EventTimePlus(`ws`, d), "wend")),
          Generate(Explode(h), Nil, false, _, Seq(`ws`), SubqueryAlias(_, r: UnresolvedRelation))) =>
        (d, h, r.multipartIdentifier)
    }
    assert(lowered == Some((TenMin, HopWstarts(Bidtime, TenMin, 5 * Times.MinuteMs, 0L), Seq("Bid"))))
  }

  test("a following table alias is preserved") {
    val aliased = WindowTvfRewriter.rewrite(
      s"SELECT TB.wend FROM Tumble(data => TABLE(Bid), $TimeDur) TB GROUP BY TB.wend").collectFirst {
      case SubqueryAlias(id, p: Project) => (id.name, exprs(p).collect { case w: TumbleWend => w })
    }
    assert(aliased == Some(("TB", Seq(TumbleWend(Bidtime, TenMin, 0L)))))
    assert(rows(s"SELECT TB.e FROM Tumble(data => TABLE(Bid), $TimeDur) AS TB(t, p, i, s, e)") ==
      rows(s"SELECT wend FROM Tumble(data => TABLE(Bid), $TimeDur)"))
  }

  test("multiple TVF calls in one query are all lowered") {
    val plan = WindowTvfRewriter.rewrite(
      "SELECT * FROM Tumble(data => TABLE(A), timecol => DESCRIPTOR(t), dur => INTERVAL '1' MINUTE) x, " +
        "Tumble(data => TABLE(B), timecol => DESCRIPTOR(u), dur => INTERVAL '2' MINUTE) y")
    assert(plan.collect { case Project(_, r: UnresolvedRelation) => r.multipartIdentifier } == Seq(Seq("A"), Seq("B")))
    assert(exprs(plan).collect { case TumbleWstart(UnresolvedAttribute(c), d, _) => (c, d) } ==
      Seq((Seq("t"), Times.MinuteMs), (Seq("u"), 2 * Times.MinuteMs)))
    assert(tvfCalls(plan).isEmpty)
  }

  test("argument order does not matter") {
    val e = exprs(WindowTvfRewriter.rewrite(
      "SELECT * FROM Tumble(dur => INTERVAL '10' MINUTE, data => TABLE(Bid), timecol => DESCRIPTOR(bidtime))"))
    assert(e.contains(TumbleWstart(Bidtime, TenMin, 0L)))
  }

  test("SQL without TVF calls passes through untouched") {
    val sql = "SELECT a, tumbler FROM t WHERE hopper = 1"
    assert(WindowTvfRewriter.rewrite(sql) == CatalystSqlParser.parsePlan(sql))
  }

  test("a TVF name inside a string literal is not a call") {
    assert(rows("SELECT 'Tumble(' AS s, price FROM Bid").map(_.take(9)).distinct == Seq("[Tumble(,"))
  }

  test("a TVF name inside a comment is not a call") {
    assert(rows("SELECT item /* Tumble( */ FROM Bid").size == 6)
  }

  test("a TVF in a WITH clause, a subquery or another TVF's TABLE(...) is lowered") {
    val tumble = s"SELECT wstart, wend, item FROM Tumble(data => TABLE(Bid), $TimeDur)"
    val hop    = s"Hop(data => TABLE(%s), $TimeDur, hopsize => INTERVAL '5' MINUTE)"
    assert(rows(s"WITH T AS ($tumble) SELECT * FROM T") == rows(tumble))
    assert(rows(s"SELECT wstart, wend, item FROM ${hop.format(
      s"SELECT bidtime, price, item FROM Tumble(data => TABLE(Bid), $TimeDur)")}") ==
      rows(s"SELECT wstart, wend, item FROM ${hop.format("Bid")}"))
    // The evaluator rejects subquery expressions, so this one is checked
    // on the plan.
    val sub = WindowTvfRewriter.rewrite(s"SELECT item FROM Bid WHERE bidtime < (SELECT MIN(wend) FROM ($tumble) x)")
    assert(tvfCalls(sub).isEmpty)
    assert(exprs(sub).contains(TumbleWend(Bidtime, TenMin, 0L)))
  }

  test("data may be TABLE(query)") {
    assert(rows(s"SELECT wstart, wend, item FROM Tumble(data => TABLE(SELECT * FROM Bid WHERE price > 2), $TimeDur)") ==
      rows(s"SELECT wstart, wend, item FROM Tumble(data => TABLE(Bid), $TimeDur) WHERE price > 2"))
  }

  test("65 TVF calls in one query are all lowered") {
    val union = Seq.fill(65)(s"SELECT * FROM Tumble(data => TABLE(Bid), $TimeDur)").mkString(" UNION ALL ")
    val plan  = WindowTvfRewriter.rewrite(union)
    assert(exprs(plan).count(_.isInstanceOf[TumbleWstart]) == 65)
    assert(tvfCalls(plan).isEmpty)
  }

  test("missing required arguments are reported") {
    rejected(s"SELECT * FROM Tumble($TimeDur)", "missing required argument 'data'")
    rejected("SELECT * FROM Tumble(data => TABLE(Bid), dur => INTERVAL '1' MINUTE)",
      "missing required argument 'timecol'")
    rejected("SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime))",
      "missing required argument 'dur'")
    rejected(s"SELECT * FROM Hop(data => TABLE(Bid), $TimeDur)", "missing required argument 'hopsize'")
  }

  test("an unknown argument name is rejected") {
    rejected(s"SELECT * FROM Tumble(data => TABLE(Bid), $TimeDur, offst => INTERVAL '1' MINUTE)",
      "unknown argument 'offst'")
    rejected(s"SELECT * FROM Hop(data => TABLE(Bid), $TimeDur, slide => INTERVAL '5' MINUTE)",
      "unknown argument 'slide'")
  }

  test("a duplicate argument name is rejected") {
    rejected(s"SELECT * FROM Tumble(data => TABLE(Bid), $TimeDur, DUR => INTERVAL '5' MINUTE)",
      "duplicate argument 'dur'")
  }

  test("positional arguments are rejected with a clear error") {
    rejected("SELECT * FROM Tumble(TABLE(Bid), DESCRIPTOR(bidtime), INTERVAL '1' MINUTE)", "must be named")
  }

  test("data must be a TABLE(...) reference") {
    for (data <- Seq("Bid", "TABLE(Bid) PARTITION BY item", "TABLE(Bid) WITH SINGLE PARTITION ORDER BY price", "TABLE(Bid) WITH SINGLE PARTITION"))
      rejected(s"SELECT * FROM Tumble(data => $data, $TimeDur)", "data must be TABLE(...)")
  }

  test("timecol must be DESCRIPTOR(col)") {
    for (tc <- Seq("bidtime", "DESCRIPTOR(bidtime, price)", "DESCRIPTOR(DESCRIPTOR(bidtime))"))
      rejected(s"SELECT * FROM Tumble(data => TABLE(Bid), timecol => $tc, dur => INTERVAL '1' MINUTE)",
        "timecol must be DESCRIPTOR(col)")
  }

  test("an interval must be a day-time interval literal") {
    for (dur <- Seq("INTERVAL '1' MONTH", "INTERVAL '10' MINUTE * 2", "600000"))
      rejected(s"SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => $dur)",
        "not a day-time interval literal")
    rejected(s"SELECT * FROM Tumble(data => TABLE(Bid), $TimeDur, offset => INTERVAL '1' YEAR)",
      "not a day-time interval literal")
  }

  test("a zero dur is rejected") {
    rejected("SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => INTERVAL '0' MINUTE)",
      "dur must be positive")
  }

  test("a negative hopsize is rejected") {
    rejected(s"SELECT * FROM Hop(data => TABLE(Bid), $TimeDur, hopsize => INTERVAL '-5' MINUTE)",
      "hopsize must be positive")
  }

  test("dur, hopsize and offset are whole milliseconds") {
    rejected("SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => INTERVAL '0.0005' SECOND)",
      "whole number of milliseconds")
    rejected(s"SELECT * FROM Hop(data => TABLE(Bid), $TimeDur, hopsize => INTERVAL '1.0005' SECOND)",
      "whole number of milliseconds")
    rejected(s"SELECT * FROM Tumble(data => TABLE(Bid), $TimeDur, offset => INTERVAL '0.0005' SECOND)",
      "whole number of milliseconds")
    assert(rows("SELECT wend FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), " +
      "dur => INTERVAL '250' MILLISECOND)").size == 6)
  }
}
