package repro.perfbench

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType

import repro.experiments.Experiments

/** One emitted change of an `EMIT STREAM` result: the data columns (event
  * times as epoch milliseconds), the `undo` flag, `ptime` and `ver`.
  */
final case class Change(data: Vector[Any], undo: Boolean, ptimeMs: Long, ver: Int)

/** The benchmark's correctness checks. They run outside the timed regions
  * and derive the expected answer independently of the code under test:
  * from DuckDB, from the watermark timeline, or from the generated input.
  */
object Check {

  final class Failed(msg: String) extends Exception(msg)

  def fail(msg: String): Nothing = throw new Failed(msg)

  private def value(v: Any): Any = v match {
    case t: java.sql.Timestamp => t.getTime
    case other                 => other
  }

  /** Changes from the collected changelog DataFrame of an `EMIT STREAM`
    * query, whose last three columns are `undo`, `ptime` and `ver`.
    */
  def changes(rows: Seq[Row]): Seq[Change] = rows.map { r =>
    val n = r.length
    Change(
      (0 until n - 3).map(i => value(r.get(i))).toVector,
      r.getBoolean(n - 3),
      r.getTimestamp(n - 2).getTime,
      r.getInt(n - 1))
  }

  /** Canonical text of a data row, for bag comparison. */
  def canon(data: Seq[Any]): String = data.map(v => String.valueOf(value(v))).mkString("|")

  /** The table rendering of a changelog: inserts minus undos, as a bag.
    * A count that goes negative means an undo of a row never inserted.
    */
  def fold(chs: Seq[Change]): Map[String, Int] = {
    val bag = mutable.Map.empty[String, Int].withDefaultValue(0)
    chs.foreach { c =>
      val k = canon(c.data)
      bag(k) += (if (c.undo) -1 else 1)
      if (bag(k) < 0) fail(s"undo of a row not materialized: $k at ptime ${c.ptimeMs}")
    }
    bag.filter(_._2 != 0).toMap
  }

  def bag(rows: Seq[Seq[Any]]): Map[String, Int] =
    rows.groupBy(canon).map { case (k, v) => k -> v.size }

  def sameBag(what: String, got: Map[String, Int], expected: Map[String, Int]): Unit =
    if (got != expected) {
      val missing = expected.keySet.diff(got.keySet).take(3)
      val extra   = got.keySet.diff(expected.keySet).take(3)
      fail(s"$what: ${got.values.sum} rows vs ${expected.values.sum} expected; " +
        s"missing $missing; unexpected $extra")
    }

  /** Changelog well-formedness: ptimes never decrease, and each group's
    * `ver` runs 0, 1, ..., k-1 in emission order.
    */
  def wellFormed(chs: Seq[Change], group: Change => Any): Unit = {
    chs.iterator.sliding(2).foreach {
      case Seq(a, b) if b.ptimeMs < a.ptimeMs => fail(s"ptime goes back: ${a.ptimeMs} then ${b.ptimeMs}")
      case _                                  =>
    }
    val next = mutable.Map.empty[Any, Int].withDefaultValue(0)
    chs.foreach { c =>
      val g = group(c)
      if (c.ver != next(g)) fail(s"group $g: ver ${c.ver} where ${next(g)} was due")
      next(g) += 1
    }
  }

  /** Driver-side rows as a Spark DataFrame, for [[repro.Oracle]]. */
  def df(spark: SparkSession, schema: StructType, rows: Seq[Seq[Any]]): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows.map(Row.fromSeq), 1), schema)

  /** The paper listings L3–L14, bit for bit. */
  def listings(spark: SparkSession): Unit = {
    val bad = Experiments.listings(spark).filterNot(_.matches).map(_.id)
    if (bad.nonEmpty) fail(s"paper listings no longer match: ${bad.mkString(", ")}")
  }

  /** The checker's self-test: a changelog that passed, with one row
    * removed or one undo flag flipped, must fail.
    */
  def selfTest(good: Seq[Change], check: Seq[Change] => Unit): Unit = {
    check(good)
    require(good.nonEmpty, "self-test needs a non-empty changelog")
    val dropped = good.patch(good.size / 2, Nil, 1)
    val flipped = good.updated(good.size / 2, good(good.size / 2).copy(undo = !good(good.size / 2).undo))
    for ((what, bad) <- Seq("one row removed" -> dropped, "one undo flag flipped" -> flipped)) {
      val caught = try { check(bad); false } catch { case _: Failed => true }
      if (!caught) throw new AssertionError(s"checker accepted a changelog with $what")
    }
  }
}

/** DuckDB over tables loaded in bulk through its appender. [[repro.Oracle]]
  * loads one JDBC row at a time, which takes about 15 s for the 100k bids
  * of engine-microbatch; this loads them in well under a second. As in
  * the oracle, every column is VARCHAR and the SQL casts.
  */
object Duck {
  final case class Table(name: String, columns: Seq[String], rows: Seq[Seq[Any]])

  def table(name: String, df: DataFrame): Table =
    Table(name, df.columns.toSeq, df.collect().toSeq.map(_.toSeq))

  /** The result of `sql` as a bag of canonical rows (see [[Check.canon]]). */
  def bag(sql: String, tables: Table*): Map[String, Int] = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = java.sql.DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[org.duckdb.DuckDBConnection]
    try {
      for (t <- tables) {
        conn.createStatement.execute(s"CREATE TABLE ${t.name} (${t.columns.map(_ + " VARCHAR").mkString(", ")})")
        val app = conn.createAppender("main", t.name)
        t.rows.foreach { r =>
          app.beginRow()
          r.foreach(v => app.append(String.valueOf(v)))
          app.endRow()
        }
        app.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val n    = rs.getMetaData.getColumnCount
      val rows = Iterator.continually(rs).takeWhile(_.next()).map(r => (1 to n).map(r.getObject)).toVector
      Check.bag(rows)
    } finally conn.close()
  }
}
