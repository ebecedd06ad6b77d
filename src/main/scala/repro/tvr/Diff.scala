package repro.tvr

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

/** Multiset algebra over relations.
  *
  * A TVR snapshot is a *bag* of rows; the changelog between two snapshots
  * is their bag difference rendered as INSERT rows and retraction
  * (`undo`) rows — the paper's stream/table duality (Section 3.3.1).
  * `expand` serves [[Tvr.snapshotsAt]]; the driver-side bag operations
  * serve the reference evaluator, whose snapshots are small and are
  * diffed in processing-time order.
  */
object Diff {

  /** Expand a counted relation `(dataCols..., __cnt)` back to a bag. */
  def expand(countedDf: DataFrame): DataFrame =
    countedDf
      .withColumn("__i", explode(sequence(lit(1L), col("__cnt"))))
      .drop("__cnt", "__i")

  // ------------------------------------------------------------------
  // Driver-side bag operations (reference evaluator; snapshots collected)
  // ------------------------------------------------------------------

  /** A bag of rows keyed by their full value sequence. */
  def toBag(rows: Seq[Row]): Map[Seq[Any], Int] =
    rows.groupBy(r => r.toSeq).map { case (k, v) => (k, v.size) }

  /** Bag difference: rows to insert (positive multiplicity) and rows to
    * retract, in deterministic (sorted-by-string) order.
    */
  def bagDiff(before: Map[Seq[Any], Int], after: Map[Seq[Any], Int])
      : (Seq[Seq[Any]], Seq[Seq[Any]]) = {
    val keys = (before.keySet ++ after.keySet).toSeq.sortBy(_.mkString(""))
    val ins  = Vector.newBuilder[Seq[Any]]
    val del  = Vector.newBuilder[Seq[Any]]
    keys.foreach { k =>
      val d = after.getOrElse(k, 0) - before.getOrElse(k, 0)
      if (d > 0) (1 to d).foreach(_ => ins += k)
      else if (d < 0) (1 to -d).foreach(_ => del += k)
    }
    (ins.result(), del.result())
  }
}
