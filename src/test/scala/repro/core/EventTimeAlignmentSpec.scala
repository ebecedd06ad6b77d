package repro.core

import repro.SparkSpec
import repro.paperexample.PaperDataset
import repro.tvr.Times

/** Section 5 lessons: which operators preserve watermark alignment of
  * event-time attributes, and Extension 2's GROUP BY requirement.
  */
class EventTimeAlignmentSpec extends SparkSpec {

  private lazy val session: StreamSqlSession = {
    val s = new StreamSqlSession(spark)
    s.registerStream("Bid", PaperDataset.bidTvr(spark))
    s
  }

  private def align(sql: String): Map[String, EventTimeAlignment.Align] =
    session.alignmentOf(sql).toMap

  test("a verbatim-forwarded event time column stays aligned (strict)") {
    val m = align("SELECT bidtime, price FROM Bid")
    assert(m("bidtime") == EventTimeAlignment.Align("Bid", 0L, strict = true))
    assert(!m.contains("price"))
  }

  test("Tumble's wend is aligned with delta 0; wstart with delta dur") {
    val m = align(PaperDataset.tumbleSql)
    assert(m("wend") == EventTimeAlignment.Align("Bid", 0L, strict = false))
    assert(m("wstart") == EventTimeAlignment.Align("Bid", 10 * Times.MinuteMs, strict = false))
  }

  test("Hop's wstart/wend are aligned through the generator") {
    val m = align(PaperDataset.hopSql)
    assert(m("wstart") == EventTimeAlignment.Align("Bid", 10 * Times.MinuteMs, strict = false))
    assert(m("wend") == EventTimeAlignment.Align("Bid", 0L, strict = false))
  }

  test("grouping keys keep alignment through an aggregation") {
    val m = align(PaperDataset.tumbleGroupSql)
    assert(m.contains("wstart") && m.contains("wend"))
    assert(!m.contains("maxPrice"))
  }

  test("an aggregate over an event time column loses alignment") {
    val m = align(
      """SELECT TB.wend wend, MAX(TB.bidtime) lastBid
        |FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
        |            dur => INTERVAL '10' MINUTE) TB
        |GROUP BY TB.wend""".stripMargin)
    assert(m.contains("wend"))
    assert(!m.contains("lastBid")) // MAX() erases the watermark bound
  }

  test("arbitrary arithmetic on an event time column degrades it (conservative rule)") {
    val m = align("SELECT bidtime + INTERVAL '5' MINUTE AS shifted, price FROM Bid")
    assert(!m.contains("shifted"))
  }

  test("alignment survives joins (both inputs' attributes visible)") {
    val m = align(PaperDataset.q7Sql)
    assert(m("wstart") == EventTimeAlignment.Align("Bid", 10 * Times.MinuteMs, strict = false))
    assert(m("wend") == EventTimeAlignment.Align("Bid", 0L, strict = false))
    assert(m("bidtime") == EventTimeAlignment.Align("Bid", 0L, strict = true))
  }

  test("renaming via alias preserves alignment") {
    val m = align("SELECT bidtime AS occurred, item FROM Bid")
    assert(m("occurred") == EventTimeAlignment.Align("Bid", 0L, strict = true))
  }

  test("a UNION column is aligned only if every branch's is, in either branch order") {
    val s = new StreamSqlSession(spark)
    s.registerStream("Bid", PaperDataset.bidTvr(spark))
    s.registerStream("Bid2", PaperDataset.bidTvr(spark).copy(eventTime = None))
    val (bid, bid2) = ("SELECT bidtime, price, item FROM Bid", "SELECT bidtime, price, item FROM Bid2")
    for ((first, second) <- Seq(bid -> bid2, bid2 -> bid)) withClue(s"$first UNION ALL $second: ") {
      assert(s.alignmentOf(s"$first UNION ALL $second").isEmpty)
      val e = intercept[StreamSqlAnalysisException](s.sql(
        s"""SELECT wstart, wend, COUNT(*) AS n
           |FROM Tumble(data => TABLE($first UNION ALL $second), timecol => DESCRIPTOR(bidtime),
           |            dur => INTERVAL '10' MINUTE)
           |GROUP BY wstart, wend EMIT STREAM AFTER WATERMARK""".stripMargin, Times.hm("8:21")))
      assert(e.getMessage.contains("Extension 2"), e.getMessage)
    }
    assert(s.alignmentOf(s"$bid UNION ALL $bid").toMap.get("bidtime") ==
      Some(EventTimeAlignment.Align("Bid", 0L, strict = true)))
  }

  // ------------------------------------------------ Extension 2 rule

  test("Extension 2: GROUP BY without an event-time key over a stream is rejected") {
    intercept[StreamSqlAnalysisException] {
      session.sql("SELECT item, MAX(price) m FROM Bid GROUP BY item", Times.hm("8:21"))
    }
  }

  test("Extension 2's error names the grouping operator and its keys") {
    def items(op: String) = s"SELECT item FROM Bid $op SELECT item FROM Bid"
    for ((sql, op) <- Seq(
        "SELECT item, COUNT(*) c FROM Bid GROUP BY item" -> "GROUP BY",
        "SELECT DISTINCT item FROM Bid"                  -> "DISTINCT",
        items("UNION")                                   -> "UNION",
        items("INTERSECT ALL")                           -> "INTERSECT",
        items("EXCEPT")                                  -> "EXCEPT")) {
      val e = intercept[StreamSqlAnalysisException](session.sql(sql, Times.hm("8:21")))
      assert(e.getMessage.startsWith(s"$op over an unbounded input"), e.getMessage)
      assert(e.getMessage.contains("Extension 2") && e.getMessage.contains("item"), e.getMessage)
    }
  }

  test("Extension 2: GROUP BY with a window bound key is accepted") {
    val df = session.sql(PaperDataset.tumbleGroupSql, Times.hm("8:21"))
    assert(df.count() == 2)
  }

  test("Extension 2: GROUP BY on the raw event time column is accepted") {
    val df = session.sql(
      "SELECT bidtime, COUNT(*) c FROM Bid GROUP BY bidtime", Times.hm("8:21"))
    assert(df.count() == 6)
  }

  test("Extension 2 verdicts: every grouping over a stream needs an event-time key") {
    val s = new StreamSqlSession(spark)
    s.registerStream("Bid", PaperDataset.bidTvr(spark))
    s.registerBoundedTvr("BoundedBid", PaperDataset.bidTvr(spark))
    s.registerTable("ItemInfo", spark.createDataFrame(Seq(("A", "art"), ("D", "drums"))).toDF("item", "descr"))
    def items(op: String) = s"SELECT item FROM Bid $op SELECT item FROM Bid"
    val rejected = Seq(
      "SELECT item, COUNT(*) c FROM Bid GROUP BY item",
      "SELECT DISTINCT item FROM Bid",
      items("UNION"),
      items("INTERSECT"),
      items("INTERSECT ALL"),
      items("EXCEPT"),
      items("EXCEPT ALL"),
      "SELECT item FROM ItemInfo INTERSECT SELECT item FROM Bid",
      "SELECT item FROM ItemInfo EXCEPT SELECT item FROM Bid",
      "SELECT i.item, COUNT(*) c FROM ItemInfo i JOIN Bid b ON i.item = b.item GROUP BY i.item",
    )
    val accepted = Seq(
      "SELECT 1 AS one, COUNT(*) c FROM Bid GROUP BY 1",
      "SELECT COUNT(*) c FROM Bid GROUP BY 'x'",
      "SELECT item, bidtime, COUNT(*) c FROM Bid GROUP BY item, bidtime",
      "SELECT DISTINCT bidtime, price % 2 AS odd FROM Bid",
      "SELECT bidtime, item FROM Bid INTERSECT ALL SELECT bidtime, item FROM Bid",
      "SELECT item, COUNT(*) c FROM BoundedBid GROUP BY item",
      "SELECT DISTINCT item FROM BoundedBid",
      "SELECT COUNT(*) c FROM Bid",
    )
    for (emit <- Seq("", " EMIT STREAM")) {
      for (sql <- rejected) withClue(s"$sql$emit: ") {
        val e = intercept[StreamSqlAnalysisException](s.sql(sql + emit, Times.hm("8:21")))
        assert(e.getMessage.contains("Extension 2"), e.getMessage)
      }
      for (sql <- accepted) withClue(s"$sql$emit: ") {
        s.sql(sql + emit, Times.hm("8:21"))
      }
    }
  }

  test("Extension 2 rule is inert for bounded tables") {
    val s2 = new StreamSqlSession(spark)
    s2.registerTable("BoundedBid",
      PaperDataset.bidTvr(spark).snapshot)
    val df = s2.sql("SELECT item, MAX(price) m FROM BoundedBid GROUP BY item")
    assert(df.count() == 6)
  }
}
